#include "layers.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "wire_client.h"
#include "xml/event.h"
#include "xml/parser.h"
#include "xml/structural_index.h"
#include "xml/symbol_table.h"
#include "xpstream/engine.h"
#include "xpstream/pipeline.h"
#include "xpstream/planner.h"
#include "xpstream/query.h"

namespace perfbench {

namespace {

using xpstream::Engine;
using xpstream::EngineOptions;

struct NullSink : xpstream::EventSink {
  xpstream::Status OnEvent(const xpstream::Event&) override {
    return xpstream::Status::OK();
  }
};

/// Repeats `pass` (one sweep over the corpus) until `seconds` have
/// elapsed, at least once; returns the number of passes.
template <typename Pass>
size_t Repeat(double seconds, Pass pass) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  size_t passes = 0;
  do {
    if (!pass()) return 0;
    ++passes;
  } while (NowNs() < deadline);
  return passes;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

EngineOptions DaemonEngineOptions(const Workload& w) {
  // What xpstreamd configures when given only --engine: no history,
  // its default depth and entity-expansion caps.
  EngineOptions options;
  options.engine = w.engine;
  options.keep_history = false;
  options.max_element_depth = 1024;
  options.max_entity_expansion_bytes = 1u << 20;
  return options;
}

std::string SubId(size_t i) { return "p" + std::to_string(i); }

/// Parses `xml` as xpstreamd receives it: in chunk_bytes pieces.
bool FeedChunked(xpstream::XmlParser* parser, const std::string& xml,
                 size_t chunk) {
  for (size_t at = 0; at < xml.size(); at += chunk) {
    if (!parser->Feed(std::string_view(xml).substr(at, chunk)).ok()) {
      return false;
    }
  }
  return parser->Finish().ok();
}

}  // namespace

std::string RunLayers(const Workload& w, double phase_seconds, Tracer* tracer,
                      std::map<std::string, double>* metrics) {
  auto& m = *metrics;
  const size_t n = w.docs.size();
  size_t corpus_bytes = 0, corpus_events = 0;
  for (const Document& doc : w.docs) {
    corpus_bytes += doc.xml.size();
    corpus_events += doc.events;
  }

  // --- xml: structural scan, parse, parse + intern -------------------
  {
    xpstream::StructuralIndex index;
    int64_t busy = 0;
    const size_t passes = Repeat(phase_seconds, [&] {
      for (size_t d = 0; d < n; ++d) {
        const std::string& xml = w.docs[d].xml;
        index.Clear();
        const int64_t t0 = NowNs();
        for (size_t at = 0; at < xml.size(); at += w.chunk_bytes) {
          index.Scan(xml.data(), at, std::min(xml.size(), at + w.chunk_bytes));
        }
        const int64_t t1 = NowNs();
        busy += t1 - t0;
        tracer->Add("xml.scan", t0, t1, -1, d);
      }
      return true;
    });
    m["xml.scan_ns_per_byte"] =
        static_cast<double>(busy) / static_cast<double>(passes * corpus_bytes);
  }
  double parse_ns_per_byte = 0;
  for (bool intern : {false, true}) {
    NullSink sink;
    xpstream::SymbolTable symbols;
    int64_t busy = 0;
    const size_t passes = Repeat(phase_seconds, [&] {
      for (size_t d = 0; d < n; ++d) {
        const int64_t t0 = NowNs();
        xpstream::XmlParser parser(&sink, intern ? &symbols : nullptr);
        if (!FeedChunked(&parser, w.docs[d].xml, w.chunk_bytes)) return false;
        const int64_t t1 = NowNs();
        busy += t1 - t0;
        tracer->Add(intern ? "xml.parse_intern" : "xml.parse", t0, t1, -1, d);
      }
      return true;
    });
    if (passes == 0) return "the parser rejected a workload document";
    const double ns_per_byte =
        static_cast<double>(busy) / static_cast<double>(passes * corpus_bytes);
    if (!intern) {
      parse_ns_per_byte = ns_per_byte;
      m["xml.parse_ns_per_byte"] = ns_per_byte;
    } else {
      m["xml.intern_ns_per_byte"] = ns_per_byte - parse_ns_per_byte;
    }
  }

  // --- xpath / planner: compile and price every subscribed spelling --
  std::vector<const std::string*> texts;
  for (const SubSpec& s : w.population) {
    texts.push_back(&w.classes[s.cls].spellings[s.spelling]);
  }
  {
    int64_t busy = 0;
    const size_t passes = Repeat(phase_seconds / 2, [&] {
      for (size_t i = 0; i < texts.size(); ++i) {
        const int64_t t0 = NowNs();
        auto q = xpstream::CompileQuery(*texts[i]);
        const int64_t t1 = NowNs();
        if (!q.ok()) return false;
        busy += t1 - t0;
        tracer->Add("xpath.compile", t0, t1, -1, i);
      }
      return true;
    });
    if (passes == 0) return "CompileQuery rejected a workload query";
    m["xpath.compile_us"] =
        static_cast<double>(busy) / 1e3 / static_cast<double>(passes * texts.size());
  }

  // --- api / stream: the facade without and with the population ------
  std::vector<xpstream::EventBuffer> events;
  for (const Document& doc : w.docs) {
    auto parsed = xpstream::ParseXmlToEvents(doc.xml);
    if (!parsed.ok()) return "ParseXmlToEvents rejected a workload document";
    events.push_back(std::move(*parsed));
  }
  auto filter_corpus = [&](Engine* engine, const char* span, int64_t* busy) {
    return Repeat(phase_seconds, [&] {
      for (size_t d = 0; d < n; ++d) {
        const int64_t t0 = NowNs();
        auto verdicts = engine->FilterEvents(events[d].events());
        const int64_t t1 = NowNs();
        if (!verdicts.ok()) return false;
        *busy += t1 - t0;
        tracer->Add(span, t0, t1, -1, d);
      }
      return true;
    });
  };
  auto empty = Engine::Create(DaemonEngineOptions(w));
  if (!empty.ok()) return "Engine::Create failed";
  int64_t empty_busy = 0;
  const size_t empty_passes = filter_corpus(empty->get(), "api.facade",
                                            &empty_busy);
  if (empty_passes == 0) return "FilterEvents failed with no subscriptions";
  const double facade_ns_per_doc =
      static_cast<double>(empty_busy) / static_cast<double>(empty_passes * n);
  m["api.facade_us_per_doc"] = facade_ns_per_doc / 1e3;

  auto engine = Engine::Create(DaemonEngineOptions(w));
  if (!engine.ok()) return "Engine::Create failed";
  {
    int64_t busy = 0;
    for (size_t i = 0; i < w.population.size(); ++i) {
      const SubSpec& s = w.population[i];
      const int64_t t0 = NowNs();
      auto status = (*engine)->Subscribe(
          SubId(i), w.classes[s.cls].spellings[s.spelling],
          s.earliest ? xpstream::DeliveryMode::kEarliest
                     : xpstream::DeliveryMode::kAtEnd);
      const int64_t t1 = NowNs();
      if (!status.ok()) return "Engine::Subscribe: " + status.ToString();
      busy += t1 - t0;
      tracer->Add("api.subscribe", t0, t1, -1, i);
    }
    m["api.subscribe_us"] = static_cast<double>(busy) / 1e3 /
                            static_cast<double>(w.population.size());
  }
  int64_t pop_busy = 0;
  const size_t pop_passes = filter_corpus(engine->get(), "stream.match",
                                          &pop_busy);
  if (pop_passes == 0) return "FilterEvents failed under the population";
  m["stream.match_ns_per_event"] =
      (static_cast<double>(pop_busy) / static_cast<double>(pop_passes * n) -
       facade_ns_per_doc) *
      static_cast<double>(n) / static_cast<double>(corpus_events);
  m["stream.peak_table_entries"] =
      static_cast<double>((*engine)->peak_table_entries());

  // The bytes path, as a serial daemon runs it: arena and symbol
  // gauges, and the direct per-document time the server overhead is
  // measured against.
  {
    std::vector<double> us;
    const size_t passes = Repeat(phase_seconds / 2, [&] {
      for (size_t d = 0; d < n; ++d) {
        const int64_t t0 = NowNs();
        auto verdicts = (*engine)->FilterXml(w.docs[d].xml);
        const int64_t t1 = NowNs();
        if (!verdicts.ok()) return false;
        us.push_back(static_cast<double>(t1 - t0) / 1e3);
        tracer->Add("api.filter_xml", t0, t1, -1, d);
      }
      return true;
    });
    if (passes == 0) return "FilterXml failed under the population";
    m["direct_filter_us_p50"] = Median(us);
    // FilterXml parses zero-copy; the arena holds what chunked input
    // (the daemon's path) has to copy, so feed the corpus that way.
    for (size_t d = 0; d < n; ++d) {
      const std::string& xml = w.docs[d].xml;
      for (size_t at = 0; at < xml.size(); at += w.chunk_bytes) {
        if (!(*engine)->Feed(std::string_view(xml).substr(at, w.chunk_bytes))
                 .ok()) {
          return "Engine::Feed failed under the population";
        }
      }
      if (!(*engine)->FinishDocument().ok()) return "FinishDocument failed";
    }
    m["api.arena_bytes"] =
        static_cast<double>((*engine)->stats().arena_bytes().peak());
    m["api.symbol_bytes"] =
        static_cast<double>((*engine)->stats().symbol_bytes().peak());
  }
  {
    int64_t busy = 0;
    const auto& profile = (*engine)->observed_profile();
    std::vector<xpstream::CompiledQuery> compiled;
    for (const std::string* text : texts) {
      compiled.push_back(xpstream::CompileQuery(*text).value());
    }
    const size_t passes = Repeat(phase_seconds / 2, [&] {
      for (size_t i = 0; i < compiled.size(); ++i) {
        const int64_t t0 = NowNs();
        auto plan = xpstream::PlanQuery(compiled[i], profile);
        const int64_t t1 = NowNs();
        busy += t1 - t0;
        tracer->Add("planner.plan", t0, t1, -1, i);
      }
      return true;
    });
    m["planner.plan_us"] = static_cast<double>(busy) / 1e3 /
                           static_cast<double>(passes * compiled.size());
  }

  // Churn's tombstones: one round of the control schedule, then every
  // eighth population subscription leaves; COMPACT reclaims the slots.
  {
    std::map<size_t, std::string> live;
    for (size_t i = 0; i < w.control.size(); ++i) {
      const ControlOp& op = w.control[i];
      xpstream::Status status;
      if (op.kind == ControlOp::kSubscribe) {
        live[op.slot] = "c" + std::to_string(i);
        status = (*engine)->Subscribe(
            live[op.slot], w.classes[op.sub.cls].spellings[op.sub.spelling]);
      } else if (op.kind == ControlOp::kUnsubscribe) {
        status = (*engine)->Unsubscribe(live[op.slot]);
        live.erase(op.slot);
      }
      if (!status.ok()) return "control schedule: " + status.ToString();
    }
    for (size_t i = 0; i < w.population.size(); i += 8) {
      if (!(*engine)->Unsubscribe(SubId(i)).ok()) return "Unsubscribe failed";
    }
    m["api.eval_slots_per_sub"] =
        static_cast<double>((*engine)->num_eval_slots()) /
        static_cast<double>((*engine)->NumSubscriptions());
    const int64_t t0 = NowNs();
    auto status = (*engine)->CompactSubscriptions();
    const int64_t t1 = NowNs();
    if (!status.ok()) return "CompactSubscriptions: " + status.ToString();
    tracer->Add("api.compact", t0, t1, -1, 0);
    m["api.compact_ms"] = static_cast<double>(t1 - t0) / 1e6;
  }

  // --- pipeline: the pool at the daemon's worker count, closed loop
  // with as many documents in flight as the workload has publishers.
  {
    struct Sink : xpstream::PoolSink {
      std::mutex mu;
      std::condition_variable cv;
      size_t done = 0;
      std::vector<int64_t>* done_ns = nullptr;
      void OnDocumentDone(uint64_t doc, const xpstream::SubscriptionIds&,
                          std::vector<bool>, std::vector<size_t>) override {
        const int64_t now = NowNs();
        std::lock_guard<std::mutex> lock(mu);
        if (doc < done_ns->size()) (*done_ns)[doc] = now;
        ++done;
        cv.notify_all();
      }
      void OnDocumentError(uint64_t, xpstream::Status) override {
        std::lock_guard<std::mutex> lock(mu);
        ++done;
        cv.notify_all();
      }
    };
    xpstream::PipelineOptions options;
    options.engine = DaemonEngineOptions(w);
    options.workers = w.workers;
    auto pool = xpstream::EnginePool::Create(options);
    if (!pool.ok()) return "EnginePool::Create failed";
    for (size_t i = 0; i < w.population.size(); ++i) {
      const SubSpec& s = w.population[i];
      if (!(*pool)->Subscribe(SubId(i), w.classes[s.cls].spellings[s.spelling],
                              s.earliest ? xpstream::DeliveryMode::kEarliest
                                         : xpstream::DeliveryMode::kAtEnd)
               .ok()) {
        return "EnginePool::Subscribe failed";
      }
    }
    const size_t max_docs = 1u << 20;
    std::vector<int64_t> submit_ns(max_docs, 0), done_ns(max_docs, 0);
    Sink sink;
    sink.done_ns = &done_ns;
    (*pool)->SetSink(&sink);
    size_t submitted = 0;
    const int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(phase_seconds * 1e9);
    while ((NowNs() < deadline || submitted < n) && submitted < max_docs) {
      {
        std::unique_lock<std::mutex> lock(sink.mu);
        sink.cv.wait(lock,
                     [&] { return submitted - sink.done < w.publishers; });
      }
      submit_ns[submitted] = NowNs();
      uint64_t doc = 0;
      if (!(*pool)->SubmitXml(w.docs[submitted % n].xml, &doc).ok()) {
        return "EnginePool::SubmitXml failed";
      }
      ++submitted;
    }
    (*pool)->Drain();
    const int64_t end = NowNs();
    (*pool)->SetSink(nullptr);
    m["pipeline.docs_per_s"] =
        static_cast<double>(submitted) / (static_cast<double>(end - start) / 1e9);
    std::vector<double> us;
    for (size_t d = 0; d < submitted; ++d) {
      if (done_ns[d] == 0) return "a pool document never completed";
      us.push_back(static_cast<double>(done_ns[d] - submit_ns[d]) / 1e3);
      tracer->Add("pipeline.submit_to_done", submit_ns[d], done_ns[d], -1,
                  d % n);
    }
    m["pipeline.submit_to_done_us_p50"] = Median(us);

    // Quiesce: subscribe/unsubscribe a population query (a dedup hit)
    // while another thread keeps submitting.
    std::atomic<bool> stop{false};
    std::atomic<bool> submit_failed{false};
    std::thread publisher([&] {
      for (size_t d = 0; !stop.load(); ++d) {
        if (!(*pool)->SubmitXml(w.docs[d % n].xml).ok()) {
          submit_failed = true;
          return;
        }
      }
    });
    std::vector<double> quiesce_us;
    const SubSpec& probe = w.population[0];
    const std::string& text = w.classes[probe.cls].spellings[probe.spelling];
    std::string error;
    Repeat(phase_seconds / 2, [&] {
      const int64_t t0 = NowNs();
      auto status = (*pool)->Subscribe("quiesce", text);
      const int64_t t1 = NowNs();
      if (!status.ok() || !(*pool)->Unsubscribe("quiesce").ok()) {
        error = "EnginePool::Subscribe under load failed";
        return false;
      }
      quiesce_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      tracer->Add("pipeline.quiesce", t0, t1, -1, 0);
      return true;
    });
    stop = true;
    publisher.join();
    (*pool)->Drain();
    if (!error.empty()) return error;
    if (submit_failed) return "EnginePool::SubmitXml failed under mutations";
    m["pipeline.quiesce_us"] = Median(quiesce_us);
  }
  return "";
}

}  // namespace perfbench
