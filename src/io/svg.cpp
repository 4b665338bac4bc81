#include "io/svg.h"

#include <sstream>
#include <string>

namespace segroute::io {

namespace {

constexpr const char* kPalette[] = {
    "#4878d0", "#ee854a", "#6acc64", "#d65f5f", "#956cb4",
    "#8c613c", "#dc7ec0", "#797979", "#d5bb67", "#82c6e2",
};
constexpr int kPaletteSize = 10;

struct Canvas {
  std::ostringstream body;
  int width = 0;
  int height = 0;

  [[nodiscard]] std::string finish() const {
    std::ostringstream out;
    out << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << width
        << "\" height=\"" << height << "\" viewBox=\"0 0 " << width << ' '
        << height << "\">\n"
        << "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n"
        << body.str() << "</svg>\n";
    return out.str();
  }
};

int col_x(Column c, const SvgOptions& o) { return 40 + (c - 1) * o.column_px; }

void draw_track(Canvas& cv, const Track& tr, int y, const SvgOptions& o,
                const std::string& label) {
  for (SegId s = 0; s < tr.num_segments(); ++s) {
    const Segment& seg = tr.segment(s);
    cv.body << "<line x1=\"" << col_x(seg.left, o) << "\" y1=\"" << y
            << "\" x2=\"" << col_x(seg.right, o) << "\" y2=\"" << y
            << "\" stroke=\"#222\" stroke-width=\"2\"/>\n";
    if (s + 1 < tr.num_segments()) {
      // Switch between this segment and the next: an open circle.
      const int x = (col_x(seg.right, o) + col_x(seg.right + 1, o)) / 2;
      cv.body << "<circle cx=\"" << x << "\" cy=\"" << y
              << "\" r=\"4\" fill=\"white\" stroke=\"#222\" "
                 "stroke-width=\"1.5\"/>\n";
    }
  }
  if (o.show_labels) {
    cv.body << "<text x=\"6\" y=\"" << y + 4
            << "\" font-family=\"sans-serif\" font-size=\"12\">" << label
            << "</text>\n";
  }
}

void draw_occupied(Canvas& cv, const Track& tr, int y, Column lo, Column hi,
                   int color, const SvgOptions& o) {
  auto [a, b] = tr.span(lo, hi);
  for (SegId s = a; s <= b; ++s) {
    const Segment& seg = tr.segment(s);
    cv.body << "<line x1=\"" << col_x(seg.left, o) << "\" y1=\"" << y
            << "\" x2=\"" << col_x(seg.right, o) << "\" y2=\"" << y
            << "\" stroke=\"" << kPalette[color % kPaletteSize]
            << "\" stroke-width=\"6\" stroke-linecap=\"round\" "
               "opacity=\"0.75\"/>\n";
  }
}

void draw_connection_row(Canvas& cv, const Connection& c, int y, int color,
                         const SvgOptions& o) {
  cv.body << "<line x1=\"" << col_x(c.left, o) << "\" y1=\"" << y
          << "\" x2=\"" << col_x(c.right, o) << "\" y2=\"" << y
          << "\" stroke=\"" << kPalette[color % kPaletteSize]
          << "\" stroke-width=\"3\"/>\n"
          << "<line x1=\"" << col_x(c.left, o) << "\" y1=\"" << y - 5
          << "\" x2=\"" << col_x(c.left, o) << "\" y2=\"" << y + 5
          << "\" stroke=\"" << kPalette[color % kPaletteSize]
          << "\" stroke-width=\"3\"/>\n"
          << "<line x1=\"" << col_x(c.right, o) << "\" y1=\"" << y - 5
          << "\" x2=\"" << col_x(c.right, o) << "\" y2=\"" << y + 5
          << "\" stroke=\"" << kPalette[color % kPaletteSize]
          << "\" stroke-width=\"3\"/>\n";
  if (o.show_labels && !c.name.empty()) {
    cv.body << "<text x=\"" << col_x(c.right, o) + 8 << "\" y=\"" << y + 4
            << "\" font-family=\"sans-serif\" font-size=\"12\">" << c.name
            << "</text>\n";
  }
}

/// "t1", "t2", ...: appended, since g++ 12 at -O3 raises a false
/// -Wrestrict on `"literal" + std::string`.
std::string track_label(TrackId t) {
  std::string s = "t";
  s += std::to_string(t + 1);
  return s;
}

Canvas make_canvas(Column width, int rows, const SvgOptions& o) {
  Canvas cv;
  cv.width = col_x(width, o) + 60;
  cv.height = 20 + rows * o.row_px + 20;
  return cv;
}

}  // namespace

std::string to_svg(const SegmentedChannel& ch, const SvgOptions& opts) {
  Canvas cv = make_canvas(ch.width(), ch.num_tracks(), opts);
  for (TrackId t = 0; t < ch.num_tracks(); ++t) {
    draw_track(cv, ch.track(t), 20 + t * opts.row_px, opts,
               track_label(t));
  }
  return cv.finish();
}

std::string to_svg(const SegmentedChannel& ch, const ConnectionSet& cs,
                   const Routing* r, const SvgOptions& opts) {
  const int rows = cs.size() + 1 + ch.num_tracks();
  Canvas cv = make_canvas(ch.width(), rows, opts);
  int y = 20;
  for (ConnId i = 0; i < cs.size(); ++i, y += opts.row_px) {
    draw_connection_row(cv, cs[i], y, i, opts);
  }
  y += opts.row_px / 2;
  const int track_y0 = y;
  for (TrackId t = 0; t < ch.num_tracks(); ++t) {
    draw_track(cv, ch.track(t), track_y0 + t * opts.row_px, opts,
               track_label(t));
  }
  if (r != nullptr) {
    for (ConnId i = 0; i < cs.size(); ++i) {
      if (!r->is_assigned(i)) continue;
      const TrackId t = r->track_of(i);
      draw_occupied(cv, ch.track(t), track_y0 + t * opts.row_px, cs[i].left,
                    cs[i].right, i, opts);
    }
  }
  return cv.finish();
}

std::string to_svg(const SegmentedChannel& ch, const ConnectionSet& cs,
                   const GeneralizedRouting& r, const SvgOptions& opts) {
  const int rows = cs.size() + 1 + ch.num_tracks();
  Canvas cv = make_canvas(ch.width(), rows, opts);
  int y = 20;
  for (ConnId i = 0; i < cs.size(); ++i, y += opts.row_px) {
    draw_connection_row(cv, cs[i], y, i, opts);
  }
  y += opts.row_px / 2;
  const int track_y0 = y;
  for (TrackId t = 0; t < ch.num_tracks(); ++t) {
    draw_track(cv, ch.track(t), track_y0 + t * opts.row_px, opts,
               track_label(t));
  }
  for (ConnId i = 0; i < cs.size(); ++i) {
    for (const RoutePart& p : r.parts(i)) {
      draw_occupied(cv, ch.track(p.track), track_y0 + p.track * opts.row_px,
                    p.left, p.right, i, opts);
    }
  }
  return cv.finish();
}

}  // namespace segroute::io
