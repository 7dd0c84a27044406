// Result checks against the references of inputs.h, and the self-test
// that feeds each check one corrupted result to show it can fail.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "inputs.h"

namespace perfbench {

/// What the generator knows about one wire subscription id.
struct SubInfo {
  SubSpec spec;
  bool known = false;
  bool unsubscribed = false;  // its UNSUBSCRIBE was sent
};

/// Wire id → SubInfo. xpstreamd hands out ids densely from 1, so a
/// vector indexed by id keeps the per-frame lookups cheap.
class SubTable {
 public:
  /// False for an id too large to index (a misbehaving server).
  bool Add(uint32_t id, const SubSpec& spec) {
    if (id > (1u << 24)) return false;
    if (id >= subs_.size()) subs_.resize(id + 1);
    subs_[id] = SubInfo{spec, true, false};
    return true;
  }
  const SubInfo* Find(uint32_t id) const {
    return id < subs_.size() && subs_[id].known ? &subs_[id] : nullptr;
  }
  SubInfo* Find(uint32_t id) {
    return id < subs_.size() && subs_[id].known ? &subs_[id] : nullptr;
  }
  size_t id_limit() const { return subs_.size(); }
  const std::vector<SubInfo>& all() const { return subs_; }

 private:
  std::vector<SubInfo> subs_;
};

/// One connection's pushes for one document.
struct DocRecord {
  std::vector<std::pair<uint32_t, uint64_t>> matches;  // (sub, ordinal)
  std::vector<std::pair<uint32_t, uint8_t>> verdicts;  // DOC_DONE entries
  uint32_t late_matches = 0;  // MATCH frames after this DOC_DONE
  bool done = false;
};

/// Checks one connection's record of one document: every DOC_DONE
/// verdict equals the reference, one MATCH per true verdict and none
/// for a false one, all before the DOC_DONE, earliest linear MATCH
/// ordinals equal the first selected element's startElement ordinal,
/// and a stable subscription is never missing. `stable_ids` are the
/// connection's population ids. Returns "" or what is wrong.
std::string CheckDocRecord(const DocRecord& record, const Document& doc,
                           const Workload& w, const SubTable& subs,
                           const std::vector<uint32_t>& stable_ids);

/// STATS `documents_seen` equals the DOC_OKs the generator counted.
std::string CheckDocumentsSeen(uint64_t documents_seen, uint64_t doc_oks);

/// Σ|Q|·(r+1) over every query class the run subscribed, r the deepest
/// same-name nesting among the documents (Thm 8.8's frontier bound).
uint64_t FrontierBound(const Workload& w);
std::string CheckFrontierBound(uint64_t peak_table_entries, uint64_t bound);

/// Distinct verdict signatures (answers over the whole corpus) among
/// the live subscriptions' classes: a lower bound on evaluation slots.
uint64_t DistinctSignatures(const Workload& w,
                            const std::vector<size_t>& live_classes);
std::string CheckEvalSlots(uint64_t eval_slots, uint64_t signatures);

/// Feeds each check one corrupted copy of a real result; returns the
/// checks that failed to notice ("" when every one did).
std::string SelfTest(const DocRecord& record, const Document& doc,
                     const Workload& w, const SubTable& subs,
                     const std::vector<uint32_t>& stable_ids,
                     uint64_t documents_seen, bool churn_checks,
                     uint64_t bound, uint64_t signatures);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
