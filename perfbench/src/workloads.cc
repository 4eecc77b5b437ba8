#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <numeric>

#include "common/rng.h"
#include "core/datagen.h"

namespace perfbench {
namespace {

using unistore::Rng;
using unistore::Status;
using unistore::core::Cluster;
using unistore::core::ClusterOptions;
using unistore::net::PeerId;
using unistore::triple::Tuple;
using unistore::triple::Value;

constexpr char kSep = '\x1f';

/// The data sets, the churn victims and the cluster's own seed (overlay
/// construction, protocol randomness) are fixed, like a benchmark's scale
/// factor: the run seed varies the operation stream, the initiators and
/// the written tuples, so seeds compare one system on different request
/// streams, not differently shaped data sets or overlays.
constexpr uint64_t kDataSeed = 2007;
constexpr int64_t kMs = 1000;
constexpr int64_t kS = 1000 * 1000;

/// Independent stream seeds from the run seed (SplitMix64 finaliser).
uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string Row(std::initializer_list<Value> values) {
  std::string row;
  for (const Value& v : values) {
    if (!row.empty()) row += kSep;
    row += RenderValue(v);
  }
  return row;
}

const Value* Attr(const Tuple& t, const std::string& attr) {
  auto it = t.attributes.find(attr);
  return it == t.attributes.end() ? nullptr : &it->second;
}

/// VQL literal for a value.
std::string Literal(const Value& v) {
  if (v.is_string()) return "'" + v.AsString() + "'";
  return std::to_string(v.AsInt());
}

/// Levenshtein distance, written independently of the engine's so the
/// similarity oracle does not share its code.
size_t Levenshtein(const std::string& a, const std::string& b) {
  std::vector<size_t> prev(b.size() + 1), cur(b.size() + 1);
  std::iota(prev.begin(), prev.end(), 0);
  for (size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

/// Sort key of a rendered single-number row ("n:<value>").
double NumberOf(const std::string& row) {
  return row.size() > 2 ? std::strtod(row.c_str() + 2, nullptr) : 0.0;
}

bool NumberLess(const std::string& a, const std::string& b) {
  return NumberOf(a) < NumberOf(b);
}

/// Sorted multiset inclusion: every element of `part` (with multiplicity)
/// is in `whole`.
bool Includes(const std::vector<std::string>& whole,
              const std::vector<std::string>& part) {
  return std::includes(whole.begin(), whole.end(), part.begin(), part.end());
}

/// Top-k oracle over single-number rows. `required`/`allowed` are the
/// candidate values (sorted by string); `rows` is in result order.
bool CheckTopK(size_t limit, std::vector<std::string> required,
               const std::vector<std::string>& allowed,
               const std::vector<std::string>& rows) {
  if (rows.size() > limit) return false;
  if (rows.size() < std::min(limit, required.size())) return false;
  if (!std::is_sorted(rows.begin(), rows.end(), NumberLess)) return false;
  std::vector<std::string> got = rows;
  std::sort(got.begin(), got.end());
  if (!Includes(allowed, got)) return false;
  // Every required value ranked before the last returned one must be in.
  if (rows.size() < limit) return Includes(got, required);
  const double last = NumberOf(rows.back());
  required.erase(std::remove_if(required.begin(), required.end(),
                                [last](const std::string& r) {
                                  return NumberOf(r) >= last;
                                }),
                 required.end());
  return Includes(got, required);
}

Status LoadOneByOne(Cluster& cluster, const std::vector<Tuple>& tuples) {
  for (size_t i = 0; i < tuples.size(); ++i) {
    const auto via = static_cast<PeerId>(i % cluster.size());
    Status s = cluster.InsertTupleSync(via, tuples[i]);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

// --- paper_mix ------------------------------------------------------------

const char* kSkyline =
    "SELECT ?name,?age,?cnt WHERE {(?a,'name',?name) (?a,'age',?age) "
    "(?a,'num_of_pubs',?cnt) (?a,'has_published',?title) "
    "(?p,'title',?title) (?p,'published_in',?conf) (?c,'confname',?conf) "
    "(?c,'series',?sr) FILTER edist(?sr,'ICDE')<3 } "
    "ORDER BY SKYLINE OF ?age MIN, ?cnt MAX";

/// Closed loop over the paper's seven query classes on Figure-3 data.
/// Top-k reads order by one of `topk_attrs`, drawn uniformly.
class PaperMix : public Workload {
 public:
  static constexpr size_t kPeers = 64;
  static constexpr size_t kAuthors = 100;
  static constexpr size_t kOps = 1050;  // 150 rotations of 7 classes.

  PaperMix(std::string name, uint64_t seed,
           std::vector<std::string> topk_attrs)
      : Workload(std::move(name), false), topk_attrs_(std::move(topk_attrs)) {
    unistore::core::BibliographyOptions bib;
    bib.authors = kAuthors;
    bib.seed = Mix(kDataSeed, 1);
    data_ = unistore::core::GenerateBibliography(bib).AllTuples();
    Rng rng(Mix(seed, 2));
    for (size_t i = 0; i < kOps; ++i) {
      const auto via = static_cast<PeerId>(i % kPeers);
      switch (i % 7) {
        case 0:
          AddRead("skyline", kSkyline, via,
                  [](const Tuple&) { return std::vector<std::string>{}; });
          break;
        case 1:
          AddPoint(via, data_[rng.NextBounded(data_.size())].oid);
          break;
        case 2:
          AddExact(via, &rng);
          break;
        case 3:
          AddRange(via, &rng);
          break;
        case 4:
          AddSubstring(via, &rng);
          break;
        case 5:
          AddTopK(via, &rng);
          break;
        default:
          AddSimilarity(via, &rng);
          break;
      }
    }
  }

  /// Blocks of ten rotations, so every block has the same class mix.
  size_t rate_blocks() const override { return kOps / 70; }

  ClusterOptions Options() const override {
    ClusterOptions o;
    o.peers = kPeers;
    o.replication = 1;
    o.seed = Mix(kDataSeed, 3);
    return o;
  }

  Status Load(Cluster& cluster) const override {
    return LoadOneByOne(cluster, data_);
  }

  /// The skyline reference: the same query on a one-peer cluster over the
  /// same tuples.
  bool PrepareReferences() override {
    ClusterOptions o;
    o.peers = 1;
    o.seed = Mix(kDataSeed, 5);
    Cluster single(o);
    if (!LoadOneByOne(single, data_).ok()) return false;
    single.simulation().RunUntilIdle();
    single.RefreshStats();
    auto result = single.QuerySync(0, kSkyline);
    if (!result.ok()) return false;
    for (size_t j = 0; j < ops_.size(); ++j) {
      if (ops_[j].cls == "skyline") SetReference(j, RenderRows(*result));
    }
    return true;
  }

 private:
  /// A random tuple that has `attr`.
  const Tuple& WithAttr(const std::string& attr, Rng* rng) const {
    for (;;) {
      const Tuple& t = data_[rng->NextBounded(data_.size())];
      if (Attr(t, attr) != nullptr) return t;
    }
  }

  void AddPoint(PeerId via, const std::string& oid) {
    AddRead("point", "SELECT ?p,?v WHERE { ('" + oid + "',?p,?v) }", via,
            [oid](const Tuple& t) {
              return t.oid == oid ? TupleRows(t) : std::vector<std::string>{};
            });
  }

  void AddExact(PeerId via, Rng* rng) {
    static const char* kAttrs[] = {"year", "age", "num_of_pubs", "series",
                                   "published_in"};
    const std::string attr = kAttrs[rng->NextBounded(5)];
    const Value value = *Attr(WithAttr(attr, rng), attr);
    AddRead("exact",
            "SELECT ?o WHERE { (?o,'" + attr + "'," + Literal(value) + ") }",
            via, [attr, value](const Tuple& t) {
              const Value* v = Attr(t, attr);
              std::vector<std::string> rows;
              if (v != nullptr && *v == value) {
                rows.push_back(Row({Value::String(t.oid)}));
              }
              return rows;
            });
  }

  void AddRange(PeerId via, Rng* rng) {
    static const char* kAttrs[] = {"age", "num_of_pubs", "year"};
    const std::string attr = kAttrs[rng->NextBounded(3)];
    const Value bound = *Attr(WithAttr(attr, rng), attr);
    const bool less = rng->NextBernoulli(0.5);
    AddRead("range",
            "SELECT ?o,?x WHERE { (?o,'" + attr + "',?x) FILTER ?x " +
                (less ? "< " : "> ") + Literal(bound) + " }",
            via, [attr, bound, less](const Tuple& t) {
              const Value* v = Attr(t, attr);
              std::vector<std::string> rows;
              if (v != nullptr && (less ? *v < bound : *v > bound)) {
                rows.push_back(Row({Value::String(t.oid), *v}));
              }
              return rows;
            });
  }

  void AddSubstring(PeerId via, Rng* rng) {
    const std::string title = WithAttr("title", rng).attributes.at("title")
                                  .AsString();
    const std::string word = title.substr(0, title.find(' '));
    AddRead("substring",
            "SELECT ?t WHERE { (?p,'title',?t) FILTER ?t CONTAINS '" + word +
                "' }",
            via, [word](const Tuple& t) {
              const Value* v = Attr(t, "title");
              std::vector<std::string> rows;
              if (v != nullptr && v->AsString().find(word) != std::string::npos) {
                rows.push_back(Row({*v}));
              }
              return rows;
            });
  }

  void AddTopK(PeerId via, Rng* rng) {
    const std::string attr =
        topk_attrs_[rng->NextBounded(topk_attrs_.size())];
    const size_t k = 3 + rng->NextBounded(8);
    AddRead("topk",
            "SELECT ?x WHERE { (?o,'" + attr + "',?x) } ORDER BY ?x LIMIT " +
                std::to_string(k),
            via,
            [attr](const Tuple& t) {
              const Value* v = Attr(t, attr);
              return v == nullptr ? std::vector<std::string>{}
                                  : std::vector<std::string>{Row({*v})};
            },
            k);
  }

  void AddSimilarity(PeerId via, Rng* rng) {
    const std::string confname =
        WithAttr("confname", rng).attributes.at("confname").AsString();
    const std::string target = confname.substr(0, confname.find(' '));
    AddRead("similarity",
            "SELECT ?c,?s WHERE { (?c,'series',?s) FILTER edist(?s,'" +
                target + "') < 3 }",
            via, [target](const Tuple& t) {
              const Value* v = Attr(t, "series");
              std::vector<std::string> rows;
              if (v != nullptr && Levenshtein(v->AsString(), target) < 3) {
                rows.push_back(Row({Value::String(t.oid), *v}));
              }
              return rows;
            });
  }

  std::vector<std::string> topk_attrs_;
};

// --- zipf_rw --------------------------------------------------------------

/// Closed loop of Zipf-skewed exact reads and writes over tagged contacts.
class ZipfRw : public Workload {
 public:
  static constexpr size_t kPeers = 128;
  static constexpr size_t kTuples = 20000;
  static constexpr size_t kTags = 4096;
  static constexpr size_t kBatch = 250;
  static constexpr size_t kOps = 10000;

  explicit ZipfRw(uint64_t seed) : Workload("zipf_rw", false) {
    data_ = unistore::core::GenerateContactTuples(kTuples, Mix(kDataSeed, 1));
    Rng tags(Mix(kDataSeed, 2));
    for (Tuple& t : data_) {
      t.attributes["tag"] = Value::String(Tag(tags.NextBounded(kTags)));
    }
    unistore::core::ZipfQueryOptions zipf;
    zipf.count = kOps;
    zipf.theta = 0.99;
    zipf.read_ratio = 0.8;
    zipf.value_universe = kTags;
    zipf.seed = Mix(seed, 3);
    auto writes = unistore::core::GenerateContactTuples(kOps, Mix(seed, 4));
    const auto draws = unistore::core::GenerateZipfQueries(zipf);
    std::map<std::string, std::vector<std::string>> by_tag;
    for (const Tuple& t : data_) {
      by_tag[t.attributes.at("tag").AsString()].push_back(
          Row({Value::String(t.oid)}));
    }
    for (size_t i = 0; i < draws.size(); ++i) {
      const auto via = static_cast<PeerId>(i % kPeers);
      const std::string tag = draws[i].value;
      if (draws[i].is_read) {
        AddRead("exact",
                "SELECT ?o WHERE { (?o,'tag','" + tag + "') }", via,
                [tag](const Tuple& t) {
                  const Value* v = Attr(t, "tag");
                  std::vector<std::string> rows;
                  if (v != nullptr && v->AsString() == tag) {
                    rows.push_back(Row({Value::String(t.oid)}));
                  }
                  return rows;
                },
                0, &by_tag[tag]);
      } else {
        Tuple t = writes[i];
        t.oid = "write-" + std::to_string(i);
        t.attributes["tag"] = Value::String(tag);
        AddWrite(std::move(t), via);
      }
    }
  }

  size_t rate_blocks() const override { return 20; }

  ClusterOptions Options() const override {
    ClusterOptions o;
    o.peers = kPeers;
    o.replication = 1;
    o.seed = Mix(kDataSeed, 5);
    o.node.qgram_index = false;
    return o;
  }

  Status Load(Cluster& cluster) const override {
    for (size_t b = 0; b * kBatch < data_.size(); ++b) {
      const size_t end = std::min(data_.size(), (b + 1) * kBatch);
      std::vector<Tuple> batch(data_.begin() + b * kBatch,
                               data_.begin() + end);
      Status s = cluster.BulkLoadTuplesSync(
          static_cast<PeerId>(b % cluster.size()), batch);
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

 private:
  static std::string Tag(size_t rank) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "val-%05zu", rank);
    return buf;
  }
};

// --- churn_open -----------------------------------------------------------

/// Open loop at a fixed virtual rate through a scripted churn campaign.
class ChurnOpen : public Workload {
 public:
  static constexpr size_t kPeers = 64;
  static constexpr size_t kReplication = 4;
  static constexpr size_t kAuthors = 200;
  static constexpr int64_t kIntervalUs = 5 * kMs;  // 200 ops per second.
  static constexpr int64_t kWindowUs = 20 * kS;

  explicit ChurnOpen(uint64_t seed) : Workload("churn_open", true) {
    unistore::core::BibliographyOptions bib;
    bib.authors = kAuthors;
    bib.seed = Mix(kDataSeed, 1);
    data_ = unistore::core::GenerateBibliography(bib).AllTuples();

    // Seven lifecycle victims, one per replica group so no group loses
    // more than one member; fixed like the data set. Group g is
    // {g, g+16, g+32, g+48}.
    Rng script(Mix(kDataSeed, 2));
    const size_t groups = kPeers / kReplication;
    std::vector<size_t> order(groups);
    std::iota(order.begin(), order.end(), 0);
    for (size_t i = groups - 1; i > 0; --i) {
      std::swap(order[i], order[script.NextBounded(i + 1)]);
    }
    for (size_t i = 0; i < 7; ++i) {
      victims_.push_back(static_cast<PeerId>(
          order[i] + groups * script.NextBounded(kReplication)));
    }
    for (size_t p = 0; p < kPeers; ++p) {
      const auto id = static_cast<PeerId>(p);
      if (std::find(victims_.begin(), victims_.end(), id) == victims_.end()) {
        initiators_.push_back(id);
      }
    }

    Rng rng(Mix(seed, 2));
    const size_t ops = static_cast<size_t>(kWindowUs / kIntervalUs);
    for (size_t i = 0; i < ops; ++i) {
      const PeerId via = initiators_[rng.NextBounded(initiators_.size())];
      if (rng.NextBernoulli(0.2)) {
        Tuple t;
        t.oid = "wperson-" + std::to_string(i);
        t.attributes["name"] = Value::String("writer " + std::to_string(i));
        t.attributes["age"] = Value::Int(25 + static_cast<int64_t>(
                                                  rng.NextBounded(50)));
        t.attributes["num_of_pubs"] =
            Value::Int(static_cast<int64_t>(rng.NextBounded(20)));
        AddWrite(std::move(t), via);
      } else {
        AddChurnRead(via, &rng);
      }
      ops_.back().due_us = static_cast<int64_t>(i) * kIntervalUs;
    }
  }

  size_t rate_blocks() const override { return kWindowUs / kS; }

  ClusterOptions Options() const override {
    ClusterOptions o;
    o.peers = kPeers;
    o.replication = kReplication;
    o.seed = Mix(kDataSeed, 3);
    return o;
  }

  Status Load(Cluster& cluster) const override {
    return LoadOneByOne(cluster, data_);
  }

  /// Four crash-restarts, one permanent crash, two graceful leaves and
  /// two joins, spread over the window.
  unistore::net::ChurnSchedule Churn(int64_t start_us) const override {
    unistore::net::ChurnSchedule churn;
    churn.Crash(victims_[0], start_us + 2 * kS, start_us + 5 * kS)
        .Crash(victims_[1], start_us + 5 * kS, start_us + 8 * kS)
        .Crash(victims_[2], start_us + 8 * kS, start_us + 11 * kS)
        .Crash(victims_[3], start_us + 12 * kS, start_us + 15 * kS)
        .Crash(victims_[4], start_us + 6 * kS)
        .Leave(victims_[5], start_us + 4 * kS, 500 * kMs)
        .Leave(victims_[6], start_us + 10 * kS, 500 * kMs)
        .Join(start_us + 7 * kS)
        .Join(start_us + 14 * kS);
    return churn;
  }

 private:
  void AddChurnRead(PeerId via, Rng* rng) {
    const Value age = Value::Int(25 + static_cast<int64_t>(rng->NextBounded(50)));
    switch (rng->NextBounded(5)) {
      case 0: {
        const std::string oid = data_[rng->NextBounded(data_.size())].oid;
        AddRead("point", "SELECT ?p,?v WHERE { ('" + oid + "',?p,?v) }", via,
                [oid](const Tuple& t) {
                  return t.oid == oid ? TupleRows(t)
                                      : std::vector<std::string>{};
                });
        break;
      }
      case 1:
        AddRead("exact",
                "SELECT ?o WHERE { (?o,'age'," + Literal(age) + ") }", via,
                [age](const Tuple& t) {
                  const Value* v = Attr(t, "age");
                  std::vector<std::string> rows;
                  if (v != nullptr && *v == age) {
                    rows.push_back(Row({Value::String(t.oid)}));
                  }
                  return rows;
                });
        break;
      case 2: {
        const Value bound =
            Value::Int(26 + static_cast<int64_t>(rng->NextBounded(6)));
        AddRead("range",
                "SELECT ?o,?g WHERE { (?o,'age',?g) FILTER ?g < " +
                    Literal(bound) + " }",
                via, [bound](const Tuple& t) {
                  const Value* v = Attr(t, "age");
                  std::vector<std::string> rows;
                  if (v != nullptr && *v < bound) {
                    rows.push_back(Row({Value::String(t.oid), *v}));
                  }
                  return rows;
                });
        break;
      }
      case 3: {
        const size_t k = 3 + rng->NextBounded(8);
        AddRead("topk",
                "SELECT ?g WHERE { (?o,'age',?g) } ORDER BY ?g LIMIT " +
                    std::to_string(k),
                via,
                [](const Tuple& t) {
                  const Value* v = Attr(t, "age");
                  return v == nullptr ? std::vector<std::string>{}
                                      : std::vector<std::string>{Row({*v})};
                },
                k);
        break;
      }
      default:
        AddRead("join",
                "SELECT ?o,?n WHERE { (?o,'age'," + Literal(age) +
                    ") (?o,'name',?n) }",
                via, [age](const Tuple& t) {
                  const Value* v = Attr(t, "age");
                  const Value* n = Attr(t, "name");
                  std::vector<std::string> rows;
                  if (v != nullptr && n != nullptr && *v == age) {
                    rows.push_back(Row({Value::String(t.oid), *n}));
                  }
                  return rows;
                });
        break;
    }
  }

  std::vector<PeerId> victims_;
};

}  // namespace

std::string RenderValue(const Value& v) {
  if (v.is_number()) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "n:%.17g", v.AsDouble());
    return buf;
  }
  if (v.is_string()) return "s:" + v.AsString();
  return "null";
}

std::vector<std::string> TupleRows(const Tuple& t) {
  std::vector<std::string> rows;
  for (const auto& [attr, v] : t.attributes) {
    rows.push_back(Row({Value::String(attr), v}));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<std::string> RenderRows(const unistore::exec::QueryResult& r) {
  std::vector<std::string> rows;
  rows.reserve(r.rows.size());
  for (const auto& binding : r.rows) {
    std::string row;
    for (size_t c = 0; c < r.columns.size(); ++c) {
      if (c > 0) row += kSep;
      auto it = binding.find(r.columns[c]);
      row += it == binding.end() ? "unbound" : RenderValue(it->second);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void Workload::AddRead(
    std::string cls, std::string vql, PeerId via,
    std::function<std::vector<std::string>(const Tuple&)> matcher,
    size_t limit, const std::vector<std::string>* precomputed) {
  std::vector<std::string> preload;
  if (precomputed != nullptr) {
    preload = *precomputed;
  } else {
    for (const Tuple& t : data_) {
      for (std::string& row : matcher(t)) preload.push_back(std::move(row));
    }
  }
  std::sort(preload.begin(), preload.end());
  Op op;
  op.cls = std::move(cls);
  op.vql = std::move(vql);
  op.via = via;
  ops_.push_back(std::move(op));
  matchers_.push_back(std::move(matcher));
  preload_rows_.push_back(std::move(preload));
  limits_.push_back(limit);
}

void Workload::AddWrite(Tuple tuple, PeerId via) {
  Op op;
  op.cls = "write";
  op.tuple = std::move(tuple);
  op.via = via;
  ops_.push_back(std::move(op));
  matchers_.push_back(nullptr);
  preload_rows_.emplace_back();
  limits_.push_back(0);
}

void Workload::SetReference(size_t j, std::vector<std::string> rows) {
  std::sort(rows.begin(), rows.end());
  preload_rows_[j] = std::move(rows);
}

bool Workload::Check(size_t j, const std::vector<std::string>& rows,
                     const History& history) const {
  std::vector<std::string> required = preload_rows_[j];
  std::vector<std::string> allowed = required;
  for (size_t k = 0; k < ops_.size(); ++k) {
    if (!ops_[k].is_write() || history.issued_us[k] < 0) continue;
    const bool issued = k < j || history.issued_us[k] < history.done_us[j];
    if (!issued) continue;
    // One synchronous client (closed loop) must read its acknowledged
    // writes; independent open-loop clients are owed only the preload.
    const bool acked_before = !open_loop_ && k < j && history.acked[k] &&
                              history.done_us[k] <= history.issued_us[j];
    for (std::string& row : matchers_[j](ops_[k].tuple)) {
      if (acked_before) required.push_back(row);
      allowed.push_back(std::move(row));
    }
  }
  std::sort(required.begin(), required.end());
  std::sort(allowed.begin(), allowed.end());
  if (limits_[j] > 0) return CheckTopK(limits_[j], required, allowed, rows);
  std::vector<std::string> got = rows;
  std::sort(got.begin(), got.end());
  return Includes(got, required) && Includes(allowed, got);
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "paper_mix") {
    return std::make_unique<PaperMix>(name, seed,
                                      std::vector<std::string>{"age"});
  }
  if (name == "paper_mix_pubs") {
    return std::make_unique<PaperMix>(
        name, seed, std::vector<std::string>{"age", "num_of_pubs"});
  }
  if (name == "zipf_rw") return std::make_unique<ZipfRw>(seed);
  if (name == "churn_open") return std::make_unique<ChurnOpen>(seed);
  return nullptr;
}

}  // namespace perfbench
