#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>

#include "common/random.h"
#include "workload/doc_generator.h"
#include "workload/scenarios.h"
#include "xml/node.h"
#include "xml/writer.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"

namespace perfbench {

using xpstream::NodeKind;
using xpstream::Random;
using xpstream::XmlDocument;
using xpstream::XmlNode;

namespace {

constexpr uint64_t kNoOrdinal = ~uint64_t{0};

// --- the reference walk ------------------------------------------

/// An element of the generated tree in document order, with the SAX
/// ordinal of its startElement as the daemon's parser numbers events
/// (startDocument = 0, attributes right after their start tag).
struct Elem {
  int parent;  // index into the element list; -1 = the document node
  const std::string* name;
  uint64_t ordinal;
};

struct Flattened {
  std::vector<Elem> elems;
  size_t events = 0;
  size_t recursion = 0;
};

void Flatten(const XmlNode* node, int parent, std::map<std::string, int>* open,
             Flattened* out) {
  const int self = static_cast<int>(out->elems.size());
  out->elems.push_back(Elem{parent, &node->name(), out->events++});
  const int depth = ++(*open)[node->name()];
  out->recursion = std::max<size_t>(out->recursion, depth);
  bool last_was_text = false;
  for (const auto& child : node->children()) {
    if (child->kind() == NodeKind::kAttribute) ++out->events;
  }
  for (const auto& child : node->children()) {
    if (child->kind() == NodeKind::kText) {
      // Adjacent text children serialize to one run, one event.
      if (!child->text().empty() && !last_was_text) ++out->events;
      last_was_text = !child->text().empty() || last_was_text;
    } else if (child->kind() == NodeKind::kElement) {
      last_was_text = false;
      Flatten(child.get(), self, open, out);
    }
  }
  --(*open)[node->name()];
  ++out->events;  // endElement
}

Flattened FlattenDocument(const XmlDocument& doc) {
  Flattened flat;
  flat.events = 1;  // startDocument
  std::map<std::string, int> open;
  for (const auto& child : doc.root()->children()) {
    if (child->kind() == NodeKind::kElement) {
      Flatten(child.get(), -1, &open, &flat);
    }
  }
  ++flat.events;  // endDocument
  return flat;
}

/// First element (document order) a linear path selects: NFA states
/// are step indices; a descendant step's state stays live below the
/// element that activated it.
uint64_t FirstSelected(const QueryClass& q, const Flattened& flat,
                       std::vector<uint32_t>* masks) {
  const size_t n = q.steps.size();
  masks->assign(flat.elems.size(), 0);
  for (size_t e = 0; e < flat.elems.size(); ++e) {
    const Elem& elem = flat.elems[e];
    const uint32_t in = elem.parent < 0 ? 1u : (*masks)[elem.parent];
    uint32_t out = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!(in & (1u << i))) continue;
      const Step& step = q.steps[i];
      if (step.descendant) out |= 1u << i;
      if (step.name == "*" || step.name == *elem.name) out |= 1u << (i + 1);
    }
    if (out & (1u << n)) return elem.ordinal;
    (*masks)[e] = out;
  }
  return kNoOrdinal;
}

/// Computes a document's references and keeps only its bytes.
bool AddDocument(const XmlDocument& tree, Workload* w) {
  Document doc;
  auto xml = xpstream::DocumentToXml(tree);
  if (!xml.ok()) return false;
  doc.xml = std::move(*xml);
  const Flattened flat = FlattenDocument(tree);
  doc.events = flat.events;
  doc.recursion = flat.recursion;
  doc.verdict.resize(w->classes.size());
  doc.first_ordinal.assign(w->classes.size(), kNoOrdinal);
  std::vector<uint32_t> masks;
  for (size_t c = 0; c < w->classes.size(); ++c) {
    const QueryClass& q = w->classes[c];
    if (q.linear) {
      doc.first_ordinal[c] = FirstSelected(q, flat, &masks);
      doc.verdict[c] = doc.first_ordinal[c] != kNoOrdinal;
    } else {
      auto query = xpstream::ParseQuery(q.spellings[0]);
      if (!query.ok()) {
        std::fprintf(stderr, "reference: cannot parse %s\n",
                     q.spellings[0].c_str());
        return false;
      }
      doc.verdict[c] = xpstream::BoolEval(**query, tree);
    }
  }
  w->docs.push_back(std::move(doc));
  return true;
}

QueryClass LinearClass(const std::string& text) {
  QueryClass q;
  q.linear = true;
  q.spellings.push_back(text);
  size_t i = 0;
  while (i < text.size()) {
    Step step;
    step.descendant = text.compare(i, 2, "//") == 0;
    i += step.descendant ? 2 : 1;
    const size_t end = std::min(text.find('/', i), text.size());
    step.name = text.substr(i, end - i);
    i = end;
    q.steps.push_back(step);
  }
  q.size = q.steps.size() + 1;
  return q;
}

// --- dissemination -----------------------------------------------

// Linear paths drawn the way MakeDisseminationSweep draws them
// (1-5 steps, '//' with p = 0.35, '*' with p = 0.1, names s0..s3),
// over random documents of depth <= 7 on the same names.
void MakeDissemination(uint64_t seed, bool smoke, Workload* w) {
  w->engine = "nfa_index";
  w->publishers = 3;
  w->subscriber_conns = 2;
  w->docs_per_control_op = 16;
  Random qrng(seed * 0x9e3779b97f4a7c15ull + 7);
  std::set<std::string> seen;
  const size_t num_queries = smoke ? 128 : 1024;
  while (w->classes.size() < num_queries) {
    const size_t steps = 1 + qrng.Uniform(5);
    std::string text;
    for (size_t i = 0; i < steps; ++i) {
      text += qrng.Bernoulli(0.35) ? "//" : "/";
      text += qrng.Bernoulli(0.1) ? std::string("*")
                                  : "s" + std::to_string(qrng.Uniform(4));
    }
    if (seen.insert(text).second) w->classes.push_back(LinearClass(text));
  }
  for (size_t c = 0; c < w->classes.size(); ++c) {
    w->population.push_back(SubSpec{c, 0, c % 2 == 0});
  }
  // The probe re-subscribes a population query: a dedup hit, so the
  // slot count and matching work stay those of the population.
  ControlOp sub;
  sub.kind = ControlOp::kSubscribe;
  sub.sub = SubSpec{qrng.Uniform(w->classes.size()), 0, true};
  ControlOp unsub;
  unsub.kind = ControlOp::kUnsubscribe;
  w->control = {sub, unsub};

  Random drng(seed * 0x9e3779b97f4a7c15ull + 42);
  xpstream::DocGenOptions options;
  options.max_depth = 7;
  options.name_pool = 4;
  options.names = {"s0", "s1", "s2", "s3"};
  const size_t num_docs = smoke ? 32 : 256;
  for (size_t i = 0; i < num_docs; ++i) {
    AddDocument(*xpstream::GenerateRandomDocument(&drng, options), w);
  }
}

// --- message feeds -----------------------------------------------

/// A GenerateMessageFeed document of about `target_bytes`: the message
/// count is scaled from a first draw, then drawn again from the same
/// generator state, so sizes are steady across seeds.
std::unique_ptr<XmlDocument> FeedOfSize(size_t target_bytes, size_t recursion,
                                        uint64_t seed) {
  size_t messages = std::max<size_t>(1, target_bytes / 160);
  for (int round = 0; round < 2; ++round) {
    Random rng(seed);
    auto doc = xpstream::GenerateMessageFeed(messages, recursion, &rng);
    auto xml = xpstream::DocumentToXml(*doc);
    if (round == 1 || !xml.ok() || xml->empty()) return doc;
    messages = std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(messages) * target_bytes /
                               xml->size()));
  }
  return nullptr;
}

void MakeLargeFeed(uint64_t seed, bool smoke, Workload* w) {
  w->engine = "nfa_index";
  w->publishers = 1;
  w->subscriber_conns = 1;
  w->docs_per_control_op = 4;
  // Every path is selected inside the first message, so each verdict
  // is decided within a document's first KB.
  for (const char* text :
       {"/feed/msg/header/from", "//msg/header/priority", "/feed/msg/header",
        "//from", "//msg//body", "/feed/*/header/priority"}) {
    w->classes.push_back(LinearClass(text));
  }
  for (size_t c = 0; c < w->classes.size(); ++c) {
    w->population.push_back(SubSpec{c, 0, c % 2 == 0});
  }
  ControlOp sub;
  sub.kind = ControlOp::kSubscribe;
  sub.sub = SubSpec{0, 0, true};
  ControlOp unsub;
  unsub.kind = ControlOp::kUnsubscribe;
  w->control = {sub, unsub};
  // Sizes cycle through a fixed set so every seed sees the same mix.
  const size_t kKiB = 1024;
  const std::vector<size_t> sizes =
      smoke ? std::vector<size_t>{256 * kKiB, 512 * kKiB}
            : std::vector<size_t>{1024 * kKiB, 1024 * kKiB, 1024 * kKiB,
                                  2048 * kKiB};
  const size_t num_docs = smoke ? 2 : 8;
  for (size_t i = 0; i < num_docs; ++i) {
    auto tree = FeedOfSize(sizes[i % sizes.size()], 4,
                           seed * 0x9e3779b97f4a7c15ull + 1000 + i);
    if (tree == nullptr || !AddDocument(*tree, w)) return;
  }
}

// --- churn -------------------------------------------------------

/// A twig over the message-feed vocabulary. Spellings permute the
/// conjuncts (and those of a nested predicate) and vary the spacing;
/// canonical dedup must see through both.
struct Twig {
  std::string head;                   // e.g. "//msg"
  std::vector<std::string> conjuncts; // top-level predicate terms
  std::vector<std::string> inner;     // terms of a nested predicate
  std::string inner_at;               // conjunct prefix holding `inner`
  size_t size;
};

std::string Render(const Twig& t, size_t variant) {
  std::vector<std::string> terms = t.conjuncts;
  std::vector<std::string> inner = t.inner;
  // 0: as drawn; 1: terms reversed, wide spacing; 2: terms and inner
  // terms reversed; 3: inner terms reversed, wide spacing.
  if (variant == 1 || variant == 2) std::reverse(terms.begin(), terms.end());
  if (variant >= 2) std::reverse(inner.begin(), inner.end());
  const std::string sep = variant % 2 == 1 ? "  and  " : " and ";
  std::string text = t.head + "[";
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) text += sep;
    text += terms[i];
    if (terms[i] == t.inner_at) {
      text += "[";
      for (size_t j = 0; j < inner.size(); ++j) {
        text += (j > 0 ? sep : "") + inner[j];
      }
      text += "]";
    }
  }
  return text + "]";
}

Twig DrawTwig(Random* rng) {
  const std::string k = std::to_string(rng->Uniform(10));
  const char* ops[] = {" > ", " < ", " = ", " >= ", " <= "};
  const std::string op = ops[rng->Uniform(5)];
  switch (rng->Uniform(7)) {
    case 0:
      return {"//msg", {"header/priority" + op + k, "body"}, {}, "", 5};
    case 1:
      return {"//msg",
              {"header", "msg"},
              {"from", "priority" + op + k},
              "header",
              6};
    case 2:
      return {"/feed/msg", {".//priority" + op + k, "header/from"}, {}, "", 6};
    case 3:
      return {"//msg/header", {"priority" + op + k, "from"}, {}, "", 5};
    case 4:
      return {"//msg", {"msg/header/priority" + op + k, "body"}, {}, "", 6};
    case 5:
      return {"/feed/msg",
              {"header/priority" + op + k, "msg"},
              {"body", "header"},
              "msg",
              8};
    default:
      return {"//msg", {"header/from", "msg/msg", "body"}, {}, "", 7};
  }
}

void MakeChurn(uint64_t seed, bool smoke, Workload* w) {
  w->engine = "frontier";
  w->publishers = 2;
  w->subscriber_conns = 1;
  w->docs_per_control_op = 1;
  Random qrng(seed * 0x9e3779b97f4a7c15ull + 11);
  std::set<std::string> seen;
  const size_t base = smoke ? 6 : 16;
  const size_t reserve = smoke ? 2 : 8;
  while (w->classes.size() < base + reserve) {
    const Twig twig = DrawTwig(&qrng);
    QueryClass q;
    q.size = twig.size;
    for (size_t v = 0; v < 4; ++v) q.spellings.push_back(Render(twig, v));
    if (seen.insert(q.spellings[0]).second) w->classes.push_back(q);
  }
  // The population: every base class under three spellings.
  for (size_t c = 0; c < base; ++c) {
    for (size_t s = 0; s < 3; ++s) {
      w->population.push_back(SubSpec{c, s, (c + s) % 2 == 0});
    }
  }
  // One round: each reserve class gets two subscribers under different
  // spellings, both leave (tombstoning its slot), then a population
  // query gains and loses one subscriber (a dedup hit); a COMPACT
  // follows every second class.
  size_t slot = 0;
  for (size_t r = 0; r < reserve; ++r) {
    const size_t cls = base + r;
    const size_t a = qrng.Uniform(4);
    const size_t b = (a + 1 + qrng.Uniform(3)) % 4;
    const size_t first = slot++, second = slot++, dup = slot++;
    w->control.push_back({ControlOp::kSubscribe, first, {cls, a, true}});
    w->control.push_back({ControlOp::kSubscribe, second, {cls, b, false}});
    w->control.push_back({ControlOp::kUnsubscribe, first, {}});
    w->control.push_back(
        {ControlOp::kSubscribe, dup, {qrng.Uniform(base), 3, r % 2 == 0}});
    w->control.push_back({ControlOp::kUnsubscribe, second, {}});
    w->control.push_back({ControlOp::kUnsubscribe, dup, {}});
    if (r % 2 == 1) w->control.push_back({ControlOp::kCompact, 0, {}});
  }

  const size_t num_docs = smoke ? 4 : 32;
  const size_t kKiB = 1024;
  for (size_t i = 0; i < num_docs; ++i) {
    // Medium feeds, with one in four small enough (1-2 KB) that
    // verdicts differ between documents.
    const size_t target =
        (i % 4 == 3 ? 1 + (i / 4) % 2 : 64 + 32 * (i % 4)) * kKiB;
    auto tree = FeedOfSize(smoke ? target / 4 : target, 6,
                           seed * 0x9e3779b97f4a7c15ull + 5000 + i);
    if (tree == nullptr || !AddDocument(*tree, w)) return;
  }
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, bool smoke,
                  Workload* out) {
  *out = Workload();
  out->name = name;
  if (name == "dissemination") {
    MakeDissemination(seed, smoke, out);
  } else if (name == "large_feed") {
    MakeLargeFeed(seed, smoke, out);
  } else if (name == "churn") {
    MakeChurn(seed, smoke, out);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", name.c_str());
    return false;
  }
  if (out->docs.empty()) {
    std::fprintf(stderr, "workload %s: document generation failed\n",
                 name.c_str());
    return false;
  }
  return true;
}

}  // namespace perfbench
