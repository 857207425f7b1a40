#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/logging.h"
#include "obs/format.h"

namespace swiftspatial::obs {
namespace {

// Renders a double the way Prometheus expects: shortest round-trippable
// decimal, no locale surprises.
std::string FormatDouble(double v) {
  char buf[64];
  // Integers render as integers ("10", not the equally-short "1e+01" the
  // precision probe below would settle on).
  if (v == static_cast<int64_t>(v) && v > -1e15 && v < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Trim to the shortest representation that round-trips.
  for (int prec = 1; prec < 17; ++prec) {
    char probe[64];
    std::snprintf(probe, sizeof(probe), "%.*g", prec, v);
    double back = 0;
    std::sscanf(probe, "%lf", &back);
    if (back == v) return probe;
  }
  return buf;
}

// Escapes a label value for the text exposition: backslash, quote and
// newline, as the Prometheus format specifies. The JSON snapshot escapes
// with JsonEscape instead.
std::string EscapeValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

// Canonical series key: labels sorted by key, rendered as
// key="escaped",key2="escaped". "" for the unlabelled series.
std::string CanonicalLabelString(const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  for (const auto& [k, v] : sorted) {
    if (!out.empty()) out += ',';
    out += k;
    out += "=\"";
    out += EscapeValue(v);
    out += '"';
  }
  return out;
}

// Renders `name{labels}` or `name{labels,extra}` (extra pre-rendered, used
// for the histogram `le` label).
std::string SeriesName(const std::string& name, const std::string& labelstr,
                       const std::string& extra = "") {
  std::string out = name;
  if (labelstr.empty() && extra.empty()) return out;
  out += '{';
  out += labelstr;
  if (!labelstr.empty() && !extra.empty()) out += ',';
  out += extra;
  out += '}';
  return out;
}

void AppendJsonLabels(std::string* out, const Labels& labels) {
  *out += "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) *out += ',';
    first = false;
    *out += '"';
    *out += JsonEscape(k);
    *out += "\":\"";
    *out += JsonEscape(v);
    *out += '"';
  }
  *out += "}";
}

const char* TypeName(int type) {
  switch (type) {
    case 0: return "counter";
    case 1: return "gauge";
    default: return "histogram";
  }
}

}  // namespace

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

const std::vector<double>& MetricsRegistry::DefaultLatencyBuckets() {
  static const std::vector<double>* buckets = new std::vector<double>{
      1e-6,   2.5e-6, 5e-6,  1e-5,   2.5e-5, 5e-5,  1e-4,   2.5e-4, 5e-4,
      1e-3,   2.5e-3, 5e-3,  1e-2,   2.5e-2, 5e-2,  1e-1,   2.5e-1, 5e-1,
      1.0,    2.5,    5.0,   10.0,   25.0,   100.0};
  return *buckets;
}

MetricsRegistry::Family* MetricsRegistry::FamilyLocked(
    const std::string& name, Type type, const std::string& help) {
  SWIFT_CHECK(!name.empty());
  auto [it, inserted] = families_.try_emplace(name);
  Family& family = it->second;
  if (inserted) {
    family.type = type;
    family.help = help;
  } else {
    // Re-registering under a different instrument type is a bug in the
    // caller, not a runtime condition.
    SWIFT_CHECK(family.type == type);
    if (family.help.empty() && !help.empty()) family.help = help;
  }
  return &family;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const Labels& labels,
                                     const std::string& help) {
  const std::string key = CanonicalLabelString(labels);
  MutexLock lock(&mu_);
  Family* family = FamilyLocked(name, Type::kCounter, help);
  auto it = family->counters.find(key);
  if (it == family->counters.end()) {
    it = family->counters
             .emplace(key, std::unique_ptr<Counter>(new Counter(&enabled_)))
             .first;
    family->label_sets.emplace(key, labels);
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, const Labels& labels,
                                 const std::string& help) {
  const std::string key = CanonicalLabelString(labels);
  MutexLock lock(&mu_);
  Family* family = FamilyLocked(name, Type::kGauge, help);
  auto it = family->gauges.find(key);
  if (it == family->gauges.end()) {
    it = family->gauges
             .emplace(key, std::unique_ptr<Gauge>(new Gauge(&enabled_)))
             .first;
    family->label_sets.emplace(key, labels);
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const Labels& labels,
                                         std::vector<double> bounds,
                                         const std::string& help) {
  if (bounds.empty()) bounds = DefaultLatencyBuckets();
  std::sort(bounds.begin(), bounds.end());
  const std::string key = CanonicalLabelString(labels);
  MutexLock lock(&mu_);
  Family* family = FamilyLocked(name, Type::kHistogram, help);
  if (family->bounds.empty()) {
    family->bounds = bounds;
  } else {
    // All series of one histogram family must share a bucket layout or the
    // exposition is meaningless.
    SWIFT_CHECK(family->bounds == bounds);
  }
  auto it = family->histograms.find(key);
  if (it == family->histograms.end()) {
    it = family->histograms
             .emplace(key, std::unique_ptr<Histogram>(
                               new Histogram(&enabled_, family->bounds)))
             .first;
    family->label_sets.emplace(key, labels);
  }
  return it->second.get();
}

std::string MetricsRegistry::TextExposition() const {
  std::string out;
  MutexLock lock(&mu_);
  for (const auto& [name, family] : families_) {
    if (!family.help.empty()) {
      out += "# HELP " + name + " " + family.help + "\n";
    }
    out += "# TYPE " + name + " ";
    out += TypeName(static_cast<int>(family.type));
    out += "\n";
    switch (family.type) {
      case Type::kCounter:
        for (const auto& [labelstr, counter] : family.counters) {
          out += SeriesName(name, labelstr) + " " +
                 std::to_string(counter->value()) + "\n";
        }
        break;
      case Type::kGauge:
        for (const auto& [labelstr, gauge] : family.gauges) {
          out += SeriesName(name, labelstr) + " " +
                 FormatDouble(gauge->value()) + "\n";
        }
        break;
      case Type::kHistogram:
        for (const auto& [labelstr, hist] : family.histograms) {
          uint64_t cumulative = 0;
          for (std::size_t i = 0; i < hist->bounds().size(); ++i) {
            cumulative += hist->bucket_count(i);
            out += SeriesName(name + "_bucket", labelstr,
                              "le=\"" + FormatDouble(hist->bounds()[i]) +
                                  "\"") +
                   " " + std::to_string(cumulative) + "\n";
          }
          cumulative += hist->bucket_count(hist->bounds().size());
          out += SeriesName(name + "_bucket", labelstr, "le=\"+Inf\"") + " " +
                 std::to_string(cumulative) + "\n";
          out += SeriesName(name + "_sum", labelstr) + " " +
                 FormatDouble(hist->sum()) + "\n";
          out += SeriesName(name + "_count", labelstr) + " " +
                 std::to_string(hist->count()) + "\n";
        }
        break;
    }
  }
  return out;
}

std::string MetricsRegistry::JsonSnapshot() const {
  std::string out = "{\"metrics\":[";
  MutexLock lock(&mu_);
  bool first_family = true;
  for (const auto& [name, family] : families_) {
    if (!first_family) out += ',';
    first_family = false;
    out += "{\"name\":\"" + JsonEscape(name) + "\",\"type\":\"";
    out += TypeName(static_cast<int>(family.type));
    out += "\",\"help\":\"" + JsonEscape(family.help) + "\",\"series\":[";
    bool first_series = true;
    auto series_prefix = [&](const std::string& labelstr) {
      if (!first_series) out += ',';
      first_series = false;
      out += "{\"labels\":";
      auto it = family.label_sets.find(labelstr);
      AppendJsonLabels(&out, it != family.label_sets.end() ? it->second
                                                           : Labels{});
    };
    switch (family.type) {
      case Type::kCounter:
        for (const auto& [labelstr, counter] : family.counters) {
          series_prefix(labelstr);
          out += ",\"value\":" + std::to_string(counter->value()) + "}";
        }
        break;
      case Type::kGauge:
        for (const auto& [labelstr, gauge] : family.gauges) {
          series_prefix(labelstr);
          out += ",\"value\":" + FormatDouble(gauge->value()) + "}";
        }
        break;
      case Type::kHistogram:
        for (const auto& [labelstr, hist] : family.histograms) {
          series_prefix(labelstr);
          out += ",\"count\":" + std::to_string(hist->count());
          out += ",\"sum\":" + FormatDouble(hist->sum());
          out += ",\"buckets\":[";
          for (std::size_t i = 0; i <= hist->bounds().size(); ++i) {
            if (i > 0) out += ',';
            out += "{\"le\":";
            out += i < hist->bounds().size()
                       ? FormatDouble(hist->bounds()[i])
                       : std::string("\"+Inf\"");
            out += ",\"count\":" + std::to_string(hist->bucket_count(i)) + "}";
          }
          out += "]}";
        }
        break;
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::size_t MetricsRegistry::family_count() const {
  MutexLock lock(&mu_);
  return families_.size();
}

}  // namespace swiftspatial::obs
