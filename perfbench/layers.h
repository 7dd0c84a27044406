// The traced run's in-process half: times the benchmark's own calls
// into each layer's public functions on the workload's inputs.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <map>
#include <string>

#include "inputs.h"
#include "trace.h"

namespace perfbench {

/// Adds the per-layer metrics (xml.*, api.*, stream.*, xpath.*,
/// planner.*, pipeline.*) and `direct_filter_us_p50`, the median
/// Engine::FilterXml time of one document under the population.
/// Each timed phase runs for about `phase_seconds`. Returns "" or an
/// error.
std::string RunLayers(const Workload& w, double phase_seconds, Tracer* tracer,
                      std::map<std::string, double>* metrics);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
