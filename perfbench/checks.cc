#include "checks.h"

#include <algorithm>
#include <set>

namespace perfbench {

namespace {

std::string Describe(const char* what, uint32_t sub) {
  return std::string(what) + " (subscription " + std::to_string(sub) + ")";
}

}  // namespace

std::string CheckDocRecord(const DocRecord& record, const Document& doc,
                           const Workload& w, const SubTable& subs,
                           const std::vector<uint32_t>& stable_ids) {
  if (!record.done) return "no DOC_DONE";
  if (record.late_matches > 0) return "MATCH after DOC_DONE";
  // Per-id scratch, indexed by wire id and left all-zero on return:
  // bit 0 verdict seen, bit 1 verdict true, bit 2 MATCH seen.
  static std::vector<uint8_t> seen;
  if (seen.size() < subs.id_limit()) seen.resize(subs.id_limit());
  std::string error;
  for (const auto& [sub, hit] : record.verdicts) {
    const SubInfo* info = subs.Find(sub);
    if (info == nullptr) {
      error = Describe("verdict for an unknown id", sub);
      break;
    }
    if (seen[sub] & 1) {
      error = Describe("two verdicts", sub);
      break;
    }
    seen[sub] = hit != 0 ? 3 : 1;
    if ((hit != 0) != (doc.verdict[info->spec.cls] != 0)) {
      error = Describe("wrong verdict", sub);
      break;
    }
  }
  for (size_t i = 0; error.empty() && i < stable_ids.size(); ++i) {
    if (!(seen[stable_ids[i]] & 1)) {
      error = Describe("missing verdict", stable_ids[i]);
    }
  }
  for (const auto& [sub, ordinal] : record.matches) {
    if (!error.empty()) break;
    const SubInfo* info = subs.Find(sub);
    if (info == nullptr) {
      error = Describe("MATCH for an unknown id", sub);
      break;
    }
    const SubSpec& spec = info->spec;
    if (seen[sub] & 4) {
      error = Describe("two MATCHes", sub);
    } else if (doc.verdict[spec.cls] == 0) {
      error = Describe("MATCH on a miss", sub);
    } else if (!(seen[sub] & 1) && !info->unsubscribed) {
      // A subscription removed while the document was in flight may
      // have had its MATCH pushed and still be left out of the DOC_DONE.
      error = Describe("MATCH without a verdict", sub);
    } else if (spec.earliest && w.classes[spec.cls].linear &&
               ordinal != doc.first_ordinal[spec.cls]) {
      error = Describe("wrong MATCH ordinal", sub);
    }
    seen[sub] |= 4;
  }
  for (const auto& [sub, hit] : record.verdicts) {
    if (sub >= seen.size()) continue;
    if (error.empty() && hit != 0 && !(seen[sub] & 4)) {
      error = Describe("missing MATCH", sub);
    }
    seen[sub] = 0;
  }
  for (const auto& [sub, ordinal] : record.matches) {
    (void)ordinal;
    if (sub < seen.size()) seen[sub] = 0;
  }
  return error;
}

std::string CheckDocumentsSeen(uint64_t documents_seen, uint64_t doc_oks) {
  if (documents_seen == doc_oks) return "";
  return "STATS documents_seen " + std::to_string(documents_seen) +
         " != DOC_OKs " + std::to_string(doc_oks);
}

uint64_t FrontierBound(const Workload& w) {
  size_t r = 0;
  for (const Document& doc : w.docs) r = std::max(r, doc.recursion);
  std::set<size_t> classes;
  for (const SubSpec& s : w.population) classes.insert(s.cls);
  for (const ControlOp& op : w.control) {
    if (op.kind == ControlOp::kSubscribe) classes.insert(op.sub.cls);
  }
  uint64_t bound = 0;
  for (size_t c : classes) bound += w.classes[c].size * (r + 1);
  return bound;
}

std::string CheckFrontierBound(uint64_t peak_table_entries, uint64_t bound) {
  if (peak_table_entries <= bound) return "";
  return "STATS peak_table_entries " + std::to_string(peak_table_entries) +
         " > sum |Q|(r+1) = " + std::to_string(bound);
}

uint64_t DistinctSignatures(const Workload& w,
                            const std::vector<size_t>& live_classes) {
  std::set<std::vector<uint8_t>> signatures;
  for (size_t c : live_classes) {
    std::vector<uint8_t> signature;
    for (const Document& doc : w.docs) signature.push_back(doc.verdict[c]);
    signatures.insert(std::move(signature));
  }
  return signatures.size();
}

std::string CheckEvalSlots(uint64_t eval_slots, uint64_t signatures) {
  if (eval_slots >= signatures) return "";
  return "STATS eval_slots " + std::to_string(eval_slots) + " < " +
         std::to_string(signatures) + " distinct verdict signatures";
}

std::string SelfTest(const DocRecord& record, const Document& doc,
                     const Workload& w, const SubTable& subs,
                     const std::vector<uint32_t>& stable_ids,
                     uint64_t documents_seen, bool churn_checks,
                     uint64_t bound, uint64_t signatures) {
  std::string missed;
  auto expect_failure = [&](const char* name, const std::string& verdict) {
    if (verdict.empty()) missed += std::string(missed.empty() ? "" : ",") + name;
  };
  auto corrupt = [&](const char* name, auto mutate) {
    DocRecord copy = record;
    if (mutate(&copy)) {
      expect_failure(name, CheckDocRecord(copy, doc, w, subs, stable_ids));
    }
  };
  auto first_hit = [](const DocRecord& r) -> int {
    for (size_t i = 0; i < r.verdicts.size(); ++i) {
      if (r.verdicts[i].second != 0) return static_cast<int>(i);
    }
    return -1;
  };
  if (!CheckDocRecord(record, doc, w, subs, stable_ids).empty()) {
    return "self-test record is itself wrong";
  }
  corrupt("verdict", [](DocRecord* r) {
    if (r->verdicts.empty()) return false;
    r->verdicts[0].second ^= 1;
    return true;
  });
  corrupt("missing_verdict", [](DocRecord* r) {
    if (r->verdicts.empty()) return false;
    r->verdicts.pop_back();
    return true;
  });
  corrupt("missing_match", [&](DocRecord* r) {
    const int hit = first_hit(*r);
    if (hit < 0) return false;
    const uint32_t sub = r->verdicts[hit].first;
    r->matches.erase(std::remove_if(r->matches.begin(), r->matches.end(),
                                    [sub](const auto& m) {
                                      return m.first == sub;
                                    }),
                     r->matches.end());
    return true;
  });
  corrupt("extra_match", [](DocRecord* r) {
    if (r->matches.empty()) return false;
    r->matches.push_back(r->matches[0]);
    return true;
  });
  corrupt("match_on_miss", [](DocRecord* r) {
    for (const auto& [sub, hit] : r->verdicts) {
      if (hit == 0) {
        r->matches.emplace_back(sub, 1);
        return true;
      }
    }
    return false;
  });
  corrupt("match_after_done", [](DocRecord* r) {
    ++r->late_matches;
    return true;
  });
  bool has_earliest_linear = false;
  corrupt("ordinal", [&](DocRecord* r) {
    for (auto& [sub, ordinal] : r->matches) {
      const SubSpec& spec = subs.Find(sub)->spec;
      if (spec.earliest && w.classes[spec.cls].linear) {
        ++ordinal;
        has_earliest_linear = true;
        return true;
      }
    }
    return false;
  });
  if (w.engine == "nfa_index" && !has_earliest_linear) {
    missed += std::string(missed.empty() ? "" : ",") + "ordinal(no sample)";
  }
  expect_failure("documents_seen",
                 CheckDocumentsSeen(documents_seen + 1, documents_seen));
  if (churn_checks) {
    expect_failure("frontier_bound", CheckFrontierBound(bound + 1, bound));
    expect_failure("eval_slots", CheckEvalSlots(signatures - 1, signatures));
  }
  return missed;
}

}  // namespace perfbench
