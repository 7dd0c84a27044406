// Workload inputs, generated from --seed, and their reference answers,
// computed apart from the streaming engines: linear paths by this
// file's own walk over the generated tree, predicate queries by the
// xpath layer's tree evaluator (Evaluator::BoolEval).

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One location step of a linear path; name "*" is the wildcard.
struct Step {
  bool descendant = false;
  std::string name;
};

/// A query up to equivalence: every spelling has the same answers, so
/// the daemon's canonical dedup may (and should) share one slot.
struct QueryClass {
  std::vector<std::string> spellings;
  bool linear = false;
  std::vector<Step> steps;  // linear classes only
  size_t size = 0;          // |Q|: query tree nodes including the root
};

/// One subscription: which class, which spelling, which delivery mode.
struct SubSpec {
  size_t cls = 0;
  size_t spelling = 0;
  bool earliest = false;
};

/// A step of the control connection's cyclic schedule. `slot` names
/// the control-side subscription a kSubscribe creates and a later
/// kUnsubscribe removes.
struct ControlOp {
  enum Kind { kSubscribe, kUnsubscribe, kCompact };
  Kind kind = kCompact;
  size_t slot = 0;
  SubSpec sub;
};

/// One input document with its reference answers.
struct Document {
  std::string xml;
  size_t events = 0;     // SAX events, startDocument..endDocument
  size_t recursion = 0;  // r: most same-name elements on one path
  std::vector<uint8_t> verdict;          // per query class
  std::vector<uint64_t> first_ordinal;   // per linear class; ~0 if none
};

struct Workload {
  std::string name;
  std::string engine;
  size_t workers = 2;           // xpstreamd --pipeline-workers
  size_t publishers = 1;        // connections streaming documents
  size_t subscriber_conns = 1;  // connections holding the population
  size_t chunk_bytes = 64 * 1024;
  size_t docs_per_control_op = 1;  // control pacing, in completed docs
  std::vector<QueryClass> classes;
  std::vector<SubSpec> population;
  std::vector<ControlOp> control;  // one round; repeated
  std::vector<Document> docs;
};

/// Builds workload `name` from `seed`; false on an unknown name or a
/// generator failure (reported on stderr).
bool MakeWorkload(const std::string& name, uint64_t seed, bool smoke,
                  Workload* out);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
