#include "core/segment.h"

namespace segroute {

std::string to_string(const Segment& s) {
  // Appended, not `"(" + ...`: g++ 12 at -O3 raises a false -Wrestrict
  // on a literal + std::string concatenation.
  std::string out = "(";
  out += std::to_string(s.left);
  out += ", ";
  out += std::to_string(s.right);
  out += ')';
  return out;
}

}  // namespace segroute
