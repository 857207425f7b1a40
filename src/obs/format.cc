#include "obs/format.h"

namespace swiftspatial::obs {

std::string JsonEscape(std::string_view v) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    const auto byte = static_cast<unsigned char>(c);
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (byte < 0x20) {
          out += "\\u00";
          out += kHex[byte >> 4];
          out += kHex[byte & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace swiftspatial::obs
