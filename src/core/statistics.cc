#include "core/statistics.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "util/json_text.h"

namespace scpm {
namespace {

double Mean(const std::vector<double>& values, std::size_t count) {
  if (count == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < count; ++i) sum += values[i];
  return sum / static_cast<double>(count);
}

}  // namespace

OutputSummary SummarizeOutput(const std::vector<AttributeSetStats>& stats) {
  OutputSummary out;
  out.num_attribute_sets = stats.size();
  if (stats.empty()) return out;

  std::vector<double> eps, delta;
  eps.reserve(stats.size());
  delta.reserve(stats.size());
  for (const AttributeSetStats& s : stats) {
    eps.push_back(s.epsilon);
    delta.push_back(s.delta);
  }
  std::sort(eps.rbegin(), eps.rend());
  std::sort(delta.rbegin(), delta.rend());

  const std::size_t top = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(0.1 * static_cast<double>(stats.size()))));
  out.avg_epsilon_global = Mean(eps, eps.size());
  out.avg_epsilon_top10 = Mean(eps, top);
  out.avg_delta_global = Mean(delta, delta.size());
  out.avg_delta_top10 = Mean(delta, top);
  return out;
}

std::string FormatScpmCounters(const ScpmCounters& counters) {
  std::ostringstream os;
  os << "evaluated=" << counters.attribute_sets_evaluated
     << " reported=" << counters.attribute_sets_reported
     << " extended=" << counters.attribute_sets_extended
     << " candidates=" << counters.coverage_candidates
     << " intra_evals=" << counters.intra_search_evaluations
     << " intra_tasks=" << counters.intra_branch_tasks
     << " bitmap_isects=" << counters.bitmap_intersections
     << " gallop_isects=" << counters.galloping_intersections
     << " dense_convs=" << counters.dense_conversions;
  return os.str();
}

std::string ScpmCountersJson(const ScpmCounters& counters) {
  // Sorted keys: the bytes JsonValue::Dump would give the same object.
  const std::pair<const char*, std::uint64_t> fields[] = {
      {"attribute_sets_evaluated", counters.attribute_sets_evaluated},
      {"attribute_sets_extended", counters.attribute_sets_extended},
      {"attribute_sets_reported", counters.attribute_sets_reported},
      {"bitmap_intersections", counters.bitmap_intersections},
      {"coverage_candidates", counters.coverage_candidates},
      {"dense_conversions", counters.dense_conversions},
      {"galloping_intersections", counters.galloping_intersections},
      {"intra_branch_tasks", counters.intra_branch_tasks},
      {"intra_search_evaluations", counters.intra_search_evaluations},
  };
  std::string out = "{";
  for (const auto& [key, value] : fields) {
    if (out.size() > 1) out += ',';
    AppendJsonString(&out, key);
    out += ':';
    AppendJsonNumber(&out, static_cast<double>(value));
  }
  out += '}';
  return out;
}

}  // namespace scpm
