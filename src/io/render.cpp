#include "io/render.h"

#include <sstream>

namespace segroute::io {

namespace {

char label_for(ConnId i, const ConnectionSet& cs) {
  const std::string& name = cs[i].name;
  if (!name.empty()) return name.back();  // "c3" -> '3'
  return static_cast<char>('0' + (i + 1) % 10);
}

/// One track line: per column a cell, with 'o' between columns that are
/// separated by a switch.
std::string track_line(const Track& tr, const std::string& cells) {
  std::string out;
  for (Column c = 1; c <= tr.width(); ++c) {
    out += cells[static_cast<std::size_t>(c - 1)];
    if (c < tr.width()) {
      out += (tr.segment_at(c) != tr.segment_at(c + 1)) ? 'o' : ' ';
    }
  }
  return out;
}

std::string header(Column width) {
  std::ostringstream out;
  out << "col ";
  for (Column c = 1; c <= width; ++c) {
    out << (c % 10);
    if (c < width) out << ' ';
  }
  out << "\n";
  return out.str();
}

}  // namespace

std::string render(const ConnectionSet& cs, Column width) {
  std::ostringstream out;
  out << header(width);
  for (ConnId i = 0; i < cs.size(); ++i) {
    const Connection& c = cs[i];
    std::string cells(static_cast<std::size_t>(width), ' ');
    for (Column col = c.left; col <= c.right; ++col) {
      cells[static_cast<std::size_t>(col - 1)] = '-';
    }
    cells[static_cast<std::size_t>(c.left - 1)] = '|';
    cells[static_cast<std::size_t>(c.right - 1)] = '|';
    out << "    ";
    for (Column col = 1; col <= width; ++col) {
      out << cells[static_cast<std::size_t>(col - 1)];
      if (col < width) out << ' ';
    }
    out << "  ";
    if (c.name.empty()) {
      out << '#' << i;
    } else {
      out << c.name;
    }
    out << "\n";
  }
  return out.str();
}

std::string render(const SegmentedChannel& ch) {
  std::ostringstream out;
  out << header(ch.width());
  for (TrackId t = 0; t < ch.num_tracks(); ++t) {
    out << "t" << (t + 1) << (t + 1 < 10 ? "  " : " ");
    out << track_line(ch.track(t),
                      std::string(static_cast<std::size_t>(ch.width()), '-'));
    out << "\n";
  }
  return out.str();
}

std::string render(const SegmentedChannel& ch, const ConnectionSet& cs,
                   const Routing& r) {
  std::ostringstream out;
  out << header(ch.width());
  for (TrackId t = 0; t < ch.num_tracks(); ++t) {
    const Track& tr = ch.track(t);
    std::string cells(static_cast<std::size_t>(ch.width()), '-');
    for (ConnId i = 0; i < cs.size(); ++i) {
      if (r.track_of(i) != t) continue;
      auto [a, b] = tr.span(cs[i].left, cs[i].right);
      for (SegId s = a; s <= b; ++s) {
        for (Column c = tr.segment(s).left; c <= tr.segment(s).right; ++c) {
          cells[static_cast<std::size_t>(c - 1)] = label_for(i, cs);
        }
      }
    }
    out << "t" << (t + 1) << (t + 1 < 10 ? "  " : " ") << track_line(tr, cells)
        << "\n";
  }
  return out.str();
}

std::string render(const SegmentedChannel& ch, const ConnectionSet& cs,
                   const GeneralizedRouting& r) {
  std::ostringstream out;
  out << header(ch.width());
  for (TrackId t = 0; t < ch.num_tracks(); ++t) {
    const Track& tr = ch.track(t);
    std::string cells(static_cast<std::size_t>(ch.width()), '-');
    for (ConnId i = 0; i < cs.size(); ++i) {
      for (const RoutePart& p : r.parts(i)) {
        if (p.track != t) continue;
        auto [a, b] = tr.span(p.left, p.right);
        for (SegId s = a; s <= b; ++s) {
          for (Column c = tr.segment(s).left; c <= tr.segment(s).right; ++c) {
            cells[static_cast<std::size_t>(c - 1)] = label_for(i, cs);
          }
        }
      }
    }
    out << "t" << (t + 1) << (t + 1 < 10 ? "  " : " ") << track_line(tr, cells)
        << "\n";
  }
  return out.str();
}

}  // namespace segroute::io
