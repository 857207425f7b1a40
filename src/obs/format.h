// The one JSON string escaper of the obs exporters (metrics JSON snapshot,
// Chrome trace export, log lines) and the bench telemetry. The Prometheus
// text exposition keeps its spec's label escaping (metrics.cc).
#ifndef SWIFTSPATIAL_OBS_FORMAT_H_
#define SWIFTSPATIAL_OBS_FORMAT_H_

#include <string>
#include <string_view>

namespace swiftspatial::obs {

/// `v` escaped for the inside of a JSON string: backslash, quote and every
/// byte below 0x20 (\n, \r, \t by name, the rest as \u00XX), so no
/// caller-supplied tenant, name, attribute or field can break the document.
std::string JsonEscape(std::string_view v);

}  // namespace swiftspatial::obs

#endif  // SWIFTSPATIAL_OBS_FORMAT_H_
