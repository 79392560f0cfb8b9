// Output summaries for the parameter-sensitivity experiments (Figure 10)
// and engine-effort reporting shared by the CLI and the benches.

#ifndef SCPM_CORE_STATISTICS_H_
#define SCPM_CORE_STATISTICS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/pattern.h"
#include "core/scpm.h"

namespace scpm {

/// Averages of eps / delta over the complete output ("global") and over
/// the top 10% of attribute sets by the respective metric (paper §4.3).
struct OutputSummary {
  std::size_t num_attribute_sets = 0;
  double avg_epsilon_global = 0.0;
  double avg_epsilon_top10 = 0.0;
  double avg_delta_global = 0.0;
  double avg_delta_top10 = 0.0;
};

/// Computes the Figure-10 summary statistics.
OutputSummary SummarizeOutput(const std::vector<AttributeSetStats>& stats);

/// One-line human-readable rendering of the engine counters, e.g.
/// "evaluated=12 reported=7 extended=5 candidates=3301 intra_evals=1
/// intra_tasks=33 bitmap_isects=90 gallop_isects=2 dense_convs=7".
std::string FormatScpmCounters(const ScpmCounters& counters);

/// The same counters as a flat JSON object (keys match the field names);
/// the bench smoke jobs embed this in their BENCH_*.json artifacts so the
/// effort trajectory is tracked alongside the timings.
std::string ScpmCountersJson(const ScpmCounters& counters);

}  // namespace scpm

#endif  // SCPM_CORE_STATISTICS_H_
