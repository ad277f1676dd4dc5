// End-to-end benchmark of the served estimator.
//
// One process, one request-generator thread. The generator keeps a fixed
// number of serve::EstimationService::EstimateAsync requests in flight: a
// closed loop modelling that many planner sessions, each waiting for its
// answer before it asks the next question. The ingest-mixed workload adds one
// producer thread. Every layer is reached only through its public functions.
//
// Workloads (see BENCHMARK.json for why each was chosen):
//   cold-uniform  hybrid-trained core::Uae; every request a distinct query.
//   hot-zipf      Zipf repeats over a query pool, served through a
//                 router::HybridRouter whose primary is a 4-shard
//                 shard::ShardedServable of Uae models.
//   ingest-mixed  a shard::ShardedUae serves while a producer streams churn
//                 rows through ingest::IngestService; a RefreshController
//                 refits and hot-swaps; a post-refresh read phase follows.
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1 runs
// an untraced window, then replays the same requests on a fresh deployment
// with spans recorded around every layer call, and prints the per-layer
// metrics. Either way every served answer is checked afterwards: finite, in
// [0, num_rows], and bitwise equal to the direct EstimateCards of the snapshot
// generation that answered it. Any failure exits non-zero.
//
// Usage:
//   perfbench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--size full|min]
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/uae.h"
#include "core/wavefront.h"
#include "data/synthetic.h"
#include "estimators/histogram.h"
#include "ingest/refresh.h"
#include "nn/serialize.h"
#include "router/router.h"
#include "serve/service.h"
#include "shard/sharded_servable.h"
#include "shard/sharded_uae.h"
#include "trace.h"
#include "util/mathutil.h"
#include "util/quantiles.h"
#include "util/rng.h"
#include "workload/executor.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using namespace uae;  // NOLINT: benchmark-local brevity.

// Model-stack depths of the traced layers (client-side spans are depth 0).
constexpr int kDepthRouter = 1;
constexpr int kDepthShard = 2;
constexpr int kDepthCore = 3;
constexpr int kDepthCoreLeaf = 4;
constexpr int kDepthNn = 5;

/// The dataset, the trained models and the query pools are fixed: they are
/// the system under test, so accuracy figures compare across code versions.
/// --seed draws the request stream and the streamed rows.
constexpr uint64_t kDataSeed = 20210620;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool min_size = false;
};

/// Workload sizes; `min` is the smoke-test scale.
struct Scale {
  size_t rows;
  int inflight;      ///< Requests in flight (hot-zipf, ingest-mixed).
  int cold_inflight; ///< Requests in flight on cold-uniform: one micro-batch.
  int setups;        ///< Setups per untraced run; setup_s is their median.
  int ps_samples;    ///< Progressive samples per query (cold-uniform).
  int hidden;
  size_t train_queries;
  int dps_steps;
  size_t pool;       ///< Distinct queries in a Zipf pool.
  size_t cache;      ///< Result-cache capacity (hot-zipf, ingest-mixed).
  size_t feedback;   ///< Labeled queries the router learns from.
  size_t warmup;     ///< Requests served before timing.
  size_t churn;      ///< In-domain churn rows (ingest-mixed).
  size_t unseen;     ///< Rows carrying an unseen value (ingest-mixed).
};

Scale MakeScale(bool min_size) {
  if (min_size) {
    return Scale{2000, 8, 8, 1, 64, 16, 48, 2, 128, 32, 48, 64, 1024, 8};
  }
  return Scale{5000, 32, 8, 3, 1000, 64, 256, 2, 4096, 512, 384, 3000, 24000, 64};
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double QError(double estimate, double truth) {
  const double e = std::max(1.0, estimate);
  const double t = std::max(1.0, truth);
  return std::max(e / t, t / e);
}

double Median(std::vector<double> v) { return util::Quantile(std::move(v), 0.5); }

bool BitEqual(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

// ---------------------------------------------------------------------------
// Traced wrappers: each times the calls into one layer and delegates.
// ---------------------------------------------------------------------------

/// Wavefront inference backend that records every trunk+head forward as a span
/// carrying its row count, delegating the arithmetic to FrozenMadeBackend.
class TracedBackend final : public core::InferenceBackend {
 public:
  TracedBackend(const core::Uae& uae, std::shared_ptr<const core::FrozenMadeBackend> inner,
                Tracer* tracer)
      : InferenceBackend(uae.model(), &uae.schema()),
        inner_(std::move(inner)),
        tracer_(tracer) {}

  void ForwardProbs(int vc, const nn::Mat& x, core::WavefrontWorkspace* ws) const override {
    ScopedSpan span(tracer_, "nn.forward_probs", kDepthNn, 0, static_cast<uint32_t>(x.rows()));
    inner_->ForwardProbs(vc, x, ws);
  }
  size_t SizeBytes() const override { return inner_->SizeBytes(); }

 private:
  std::shared_ptr<const core::FrozenMadeBackend> inner_;
  Tracer* tracer_;
};

/// A Uae served through the same public steps Uae::EstimateCards takes
/// (BuildTargets, per-query RNG, WavefrontSampleSelectivities), each timed.
/// Verification checks its answers bitwise against the Uae's own.
class TracedUae final : public core::ServableModel {
 public:
  TracedUae(std::shared_ptr<const core::Uae> uae, Tracer* tracer)
      : uae_(std::move(uae)),
        backend_(std::make_shared<TracedBackend>(*uae_, uae_->FrozenBackend(), tracer)),
        tracer_(tracer) {}

  double EstimateCard(const workload::Query& query) const override {
    return EstimateCards(std::span<const workload::Query>(&query, 1))[0];
  }
  std::vector<double> EstimateCards(std::span<const workload::Query> queries) const override {
    const auto n = static_cast<uint32_t>(queries.size());
    ScopedSpan span(tracer_, "core.estimate_cards", kDepthCore, 0, n);
    std::vector<core::QueryTargets> targets;
    std::vector<util::Rng> rngs;
    targets.reserve(queries.size());
    rngs.reserve(queries.size());
    for (const workload::Query& q : queries) {
      {
        ScopedSpan t(tracer_, "core.build_targets", kDepthCoreLeaf, 0, 1);
        targets.push_back(core::BuildTargets(q, *uae_->table(), uae_->schema()));
      }
      rngs.emplace_back(util::SplitMix64(uae_->seed() ^ util::SplitMix64(q.Fingerprint())));
    }
    core::WavefrontConfig wc;
    wc.num_samples = uae_->config().ps_samples;
    wc.wave_width = std::max(1, uae_->config().wavefront_width);
    std::vector<double> cards;
    {
      ScopedSpan s(tracer_, "core.wavefront_sample", kDepthCoreLeaf, 0, n);
      cards = core::WavefrontSampleSelectivities(*backend_, targets, rngs, wc);
    }
    for (double& c : cards) c *= static_cast<double>(uae_->num_rows());
    return cards;
  }
  size_t SizeBytes() const override { return uae_->SizeBytes(); }
  size_t num_rows() const override { return uae_->num_rows(); }
  uint64_t seed() const override { return uae_->seed(); }
  std::shared_ptr<core::ServableModel> CloneServable() const override {
    return uae_->CloneServable();
  }
  size_t FineTune(const workload::Workload&, const core::FineTuneSpec&) override {
    throw std::logic_error("TracedUae is a read-only serving wrapper");
  }

 private:
  std::shared_ptr<const core::Uae> uae_;
  std::shared_ptr<const TracedBackend> backend_;
  Tracer* tracer_;
};

/// Times EstimateCard(s) of any servable as one layer span.
class TracedServable final : public core::ServableModel {
 public:
  TracedServable(const char* name, int depth, std::shared_ptr<core::ServableModel> inner,
                 Tracer* tracer)
      : name_(name), depth_(depth), inner_(std::move(inner)), tracer_(tracer) {}

  double EstimateCard(const workload::Query& query) const override {
    ScopedSpan span(tracer_, name_, depth_, 0, 1);
    return inner_->EstimateCard(query);
  }
  std::vector<double> EstimateCards(std::span<const workload::Query> queries) const override {
    ScopedSpan span(tracer_, name_, depth_, 0, static_cast<uint32_t>(queries.size()));
    return inner_->EstimateCards(queries);
  }
  size_t SizeBytes() const override { return inner_->SizeBytes(); }
  size_t num_rows() const override { return inner_->num_rows(); }
  uint64_t seed() const override { return inner_->seed(); }
  std::shared_ptr<core::ServableModel> CloneServable() const override {
    return inner_->CloneServable();
  }
  size_t FineTune(const workload::Workload& w, const core::FineTuneSpec& spec) override {
    return inner_->FineTune(w, spec);
  }

 private:
  const char* name_;
  int depth_;
  std::shared_ptr<core::ServableModel> inner_;
  Tracer* tracer_;
};

// ---------------------------------------------------------------------------
// Closed-loop request generator.
// ---------------------------------------------------------------------------

/// Sub-window length for the per-sub-window throughput and latency figures.
constexpr int64_t kSubWindowNs = 2'000'000'000;

/// What one distinct (generation, query) pair was answered with.
struct Answer {
  double card = 0.0;       ///< The first answer served.
  uint64_t count = 0;      ///< Requests answered for this pair.
  uint64_t misses = 0;     ///< ...of which missed the result cache.
  uint64_t differing = 0;  ///< ...of which differed bitwise from the first.
};

/// A timed window, aggregated as it runs so that the benchmark's own record
/// stays small next to the deployment it measures.
struct Window {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t requests = 0;
  uint64_t threw = 0;
  /// Keyed by generation << 32 | query key.
  std::unordered_map<uint64_t, Answer> answers;
  /// Latencies in microseconds, by the sub-window their answer arrived in.
  std::vector<std::vector<float>> latency_us;
  double Seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Keeps `inflight` requests outstanding. `next()` names the next request's
/// key; `keep_going(submitted)` decides whether to submit another. With a
/// tracer, each EstimateAsync call is a span and a shadow ResultCache with the
/// service's configuration times the cache probe the service makes.
Window ClosedLoop(serve::EstimationService* service, int inflight,
                  const std::function<uint32_t()>& next,
                  const std::function<const workload::Query&(uint32_t)>& query_of,
                  const std::function<bool(uint64_t)>& keep_going, Tracer* tracer) {
  struct Slot {
    std::future<serve::ServeResult> future;
    uint32_t key = 0;
    int64_t t0 = 0;
    bool busy = false;
  };
  std::vector<Slot> slots(static_cast<size_t>(inflight));
  std::unique_ptr<serve::ResultCache> shadow;
  if (tracer != nullptr) {
    shadow = std::make_unique<serve::ResultCache>(service->config().cache);
  }
  Window w;
  uint64_t submitted = 0;
  uint64_t generation = service->CurrentGeneration();

  auto submit = [&](Slot& slot) {
    slot.key = next();
    const workload::Query& q = query_of(slot.key);
    if (shadow) {
      const uint64_t fp = q.Fingerprint();
      bool hit = false;
      {
        ScopedSpan probe(tracer, "serve.cache_probe", 0, submitted, 1);
        hit = shadow->Lookup(fp, generation).has_value();
      }
      if (!hit) shadow->Insert(fp, generation, 0.0);
    }
    slot.t0 = NowNs();
    {
      ScopedSpan span(tracer, "serve.submit", 0, submitted, 1);
      slot.future = service->EstimateAsync(q);
    }
    slot.busy = true;
    ++submitted;
  };
  auto harvest = [&](Slot& slot) {
    slot.busy = false;
    ++w.requests;
    serve::ServeResult r;
    try {
      r = slot.future.get();
    } catch (const std::exception&) {
      ++w.threw;
      return;
    }
    const int64_t done = NowNs();
    const auto sub = static_cast<size_t>((done - w.start_ns) / kSubWindowNs);
    if (w.latency_us.size() <= sub) w.latency_us.resize(sub + 1);
    w.latency_us[sub].push_back(static_cast<float>(static_cast<double>(done - slot.t0) * 1e-3));
    generation = std::max(generation, r.generation);
    Answer& a = w.answers[r.generation << 32 | slot.key];
    if (a.count == 0) a.card = r.card;
    a.differing += !BitEqual(a.card, r.card);
    a.misses += !r.cache_hit;
    ++a.count;
  };

  w.start_ns = NowNs();
  for (Slot& slot : slots) {
    if (keep_going(submitted)) submit(slot);
  }
  for (;;) {
    bool any_busy = false;
    bool progressed = false;
    for (Slot& slot : slots) {
      if (!slot.busy) continue;
      any_busy = true;
      if (slot.future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) continue;
      harvest(slot);
      progressed = true;
      if (keep_going(submitted)) submit(slot);
    }
    if (!any_busy) break;
    if (!progressed) {
      Slot* oldest = nullptr;
      for (Slot& slot : slots) {
        if (slot.busy && (oldest == nullptr || slot.t0 < oldest->t0)) oldest = &slot;
      }
      oldest->future.wait();
    }
  }
  w.end_ns = NowNs();
  return w;
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

/// Outcome of checking one window's served answers.
struct Verdict {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> qerrs;  ///< One per distinct (generation, query) served.
};

class Bench {
 public:
  Bench(const Options& opt, const Scale& scale) : opt_(opt), scale_(scale) {}
  virtual ~Bench() = default;
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  /// Builds data, models and a warmed-up service. With a tracer the served
  /// layers are wrapped so their calls are recorded.
  virtual void Setup(Tracer* tracer) = 0;
  /// The timed window: runs for `seconds`, or replays exactly
  /// `replay_requests` reads when that is positive.
  virtual Window Run(double seconds, uint64_t replay_requests) = 0;
  /// Exact count of distinct query `key` over the data generation `gen` saw.
  virtual std::vector<double> Truths(uint64_t generation, const std::vector<uint32_t>& keys) = 0;
  /// Reads the traced replay must repeat to match an untraced window.
  virtual uint64_t ReplayCount(const Window& w) const { return w.requests; }
  /// Workload-specific correctness checks after the window; adds failures.
  virtual uint64_t ExtraChecks() { return 0; }
  /// Per-layer metrics of the traced replay (only the ones this workload has).
  virtual void LayerMetrics(const Window& w, const std::vector<Span>& spans, Metrics* out) = 0;

  virtual const workload::Query& Query(uint32_t key) const = 0;
  /// The served model's size.
  virtual size_t ModelBytes() const = 0;

  /// Checks every served answer: no exception, finite and in [0, num_rows],
  /// bitwise equal to the answering generation's direct EstimateCards.
  Verdict Verify(const Window& w) {
    Verdict v;
    v.attempted = w.requests;
    v.failed = w.threw;
    std::map<uint64_t, std::vector<uint32_t>> keys_by_gen;
    for (const auto& [id, a] : w.answers) keys_by_gen[id >> 32].push_back(static_cast<uint32_t>(id));
    for (auto& [gen, keys] : keys_by_gen) {
      std::sort(keys.begin(), keys.end());
      auto ref = references_.find(gen);
      if (ref == references_.end()) {  // A generation the benchmark never published.
        for (uint32_t k : keys) v.failed += w.answers.at(gen << 32 | k).count;
        continue;
      }
      std::vector<workload::Query> batch;
      batch.reserve(keys.size());
      for (uint32_t k : keys) batch.push_back(Query(k));
      const std::vector<double> direct = ref->second->EstimateCards(batch);
      const std::vector<double> truths = Truths(gen, keys);
      const auto rows = static_cast<double>(ref->second->num_rows());
      for (size_t i = 0; i < keys.size(); ++i) {
        const Answer& a = w.answers.at(gen << 32 | keys[i]);
        const bool ok = std::isfinite(a.card) && a.card >= 0.0 && a.card <= rows &&
                        BitEqual(a.card, direct[i]);
        v.failed += ok ? a.differing : a.count;
        v.qerrs.push_back(QError(direct[i], truths[i]));
      }
    }
    v.failed += ExtraChecks();
    return v;
  }

  double setup_seconds = 0.0;

 protected:
  /// Snapshots the service counters at the start of a window.
  void Mark() {
    stats_before_ = service_->Stats();
    cache_before_ = service_->CacheStats();
  }
  void ServeMetrics(const std::vector<Span>& spans, Metrics* out) const;

  Tracer* tracer_ = nullptr;  ///< Non-null in the traced replay.
  /// Derived classes reset it first in their teardown: it serves their models.
  std::unique_ptr<serve::EstimationService> service_;
  serve::ServiceStats stats_before_;
  serve::ResultCacheStats cache_before_;
  /// Untraced model each published generation answered from (kept alive
  /// until verification).
  std::map<uint64_t, std::shared_ptr<const core::ServableModel>> references_;

  const Options& opt_;
  const Scale& scale_;
};

/// Timed setup phases shared by the metric report.
struct SetupTimes {
  double label_us_per_query = 0.0;
  double train_data_epoch_s = 0.0;
  double train_hybrid_epoch_s = 0.0;
  double dps_step_ms = 0.0;
  double frozen_build_ms = 0.0;
};

/// Labels `queries` with workload::ExecuteCounts, timing the call.
std::vector<double> Label(const data::Table& table, const std::vector<workload::Query>& queries,
                          double* us_per_query) {
  const int64_t t0 = NowNs();
  const std::vector<int64_t> counts = workload::ExecuteCounts(table, queries);
  if (us_per_query != nullptr && !queries.empty()) {
    *us_per_query = static_cast<double>(NowNs() - t0) * 1e-3 / static_cast<double>(queries.size());
  }
  return std::vector<double>(counts.begin(), counts.end());
}

double SecondsSince(int64_t t0) { return static_cast<double>(NowNs() - t0) * 1e-9; }

/// Client-side and serve-layer metrics every workload reports.
void Bench::ServeMetrics(const std::vector<Span>& spans, Metrics* out) const {
  const serve::ServiceStats after = service_->Stats();
  const serve::ResultCacheStats cache = service_->CacheStats();
  const double hits = static_cast<double>(cache.hits - cache_before_.hits);
  const double misses = static_cast<double>(cache.misses - cache_before_.misses);
  out->push_back({"serve.cache_hit_ratio", {hits / std::max(1.0, hits + misses), "ratio"}});
  const LayerTimes probe = Account(spans, "serve.cache_probe");
  out->push_back({"serve.cache_probe_ns",
                  {static_cast<double>(probe.busy_ns) / std::max<double>(1, probe.calls), "ns"}});
  const LayerTimes submit = Account(spans, "serve.submit");
  out->push_back({"serve.submit_us",
                  {static_cast<double>(submit.busy_ns) * 1e-3 / std::max<double>(1, submit.calls),
                   "us"}});
  const double batches = static_cast<double>(after.batches - stats_before_.batches);
  const double batched =
      static_cast<double>(after.batched_queries - stats_before_.batched_queries);
  out->push_back({"serve.batch_size_mean", {batched / std::max(1.0, batches), "count"}});
  const serve::LatencySnapshot queue = service_->QueueLatency();
  out->push_back({"serve.queue_wait_us_p50", {queue.p50_us, "us"}});
  out->push_back({"serve.queue_wait_us_p99", {queue.p99_us, "us"}});
}

/// Shard fan-out of the requests that reached a sharded model (query, times
/// it reached it), from the partitioner's own pruning rule.
void FanoutMetrics(const shard::HorizontalPartitioner& part,
                   const std::vector<std::pair<const workload::Query*, uint64_t>>& queries,
                   Metrics* out) {
  double shards = 0;
  double requests = 0;
  for (const auto& [q, n] : queries) {
    shards += static_cast<double>(part.CandidateShards(*q).size() * n);
    requests += static_cast<double>(n);
  }
  const double mean = requests > 0 ? shards / requests : 0.0;
  out->push_back({"shard.fanout_mean", {mean, "count"}});
  out->push_back(
      {"shard.prune_ratio", {requests > 0 ? 1.0 - mean / part.num_shards() : 0.0, "ratio"}});
}

void AddSetupTimes(const SetupTimes& t, Metrics* out) {
  out->push_back({"core.frozen_build_ms", {t.frozen_build_ms, "ms"}});
  out->push_back({"core.train_data_epoch_s", {t.train_data_epoch_s, "s"}});
  out->push_back({"core.train_hybrid_epoch_s", {t.train_hybrid_epoch_s, "s"}});
  out->push_back({"core.dps_step_ms", {t.dps_step_ms, "ms"}});
  out->push_back({"workload.label_us_per_query", {t.label_us_per_query, "us"}});
}

/// Self time per query of each model-stack layer, plus the nn/core shares.
/// `uae` is one of the traced models (null when no Uae is traced): its sample
/// count and virtual columns give the lanes the wavefront could evaluate.
void ModelStackMetrics(const Window& w, const std::vector<Span>& spans, const core::Uae* uae,
                       Metrics* out) {
  const double wall = static_cast<double>(w.end_ns - w.start_ns);
  auto per_query_us = [](const LayerTimes& t, double queries) {
    return static_cast<double>(t.self_ns) * 1e-3 / std::max(1.0, queries);
  };
  auto items = [&](const char* name) {
    double n = 0;
    for (const Span& s : spans) {
      if (std::strcmp(s.name, name) == 0) n += s.items;
    }
    return n;
  };
  const LayerTimes router = Account(spans, "router.estimate_cards");
  out->push_back({"router.self_us", {per_query_us(router, items("router.estimate_cards")), "us"}});
  const LayerTimes shard = Account(spans, "shard.estimate_cards");
  out->push_back({"shard.estimate_us", {per_query_us(shard, items("shard.estimate_cards")), "us"}});
  const double core_queries = items("core.estimate_cards");
  const LayerTimes core_glue = Account(spans, "core.estimate_cards");
  const LayerTimes targets = Account(spans, "core.build_targets");
  const LayerTimes sample = Account(spans, "core.wavefront_sample");
  out->push_back({"core.targets_us", {per_query_us(targets, core_queries), "us"}});
  out->push_back({"core.sample_us", {per_query_us(sample, core_queries), "us"}});
  const LayerTimes forward = Account(spans, "nn.forward_probs");
  const double rows = items("nn.forward_probs");
  out->push_back({"core.forward_rows_per_query", {rows / std::max(1.0, core_queries), "count"}});
  if (uae != nullptr) {
    // Forward rows over (queries x samples x virtual columns).
    const double lanes = core_queries * uae->config().ps_samples * uae->schema().num_virtual();
    out->push_back({"core.dedup_ratio", {rows / std::max(1.0, lanes), "ratio"}});
  }
  out->push_back({"nn.forward_us",
                  {static_cast<double>(forward.busy_ns) * 1e-3 / std::max(1.0, core_queries), "us"}});
  out->push_back({"nn.forward_share", {static_cast<double>(forward.wall_ns) / wall, "ratio"}});
  const double core_self = static_cast<double>(core_glue.self_ns + targets.self_ns + sample.self_ns);
  out->push_back({"core.self_share", {core_self / wall, "ratio"}});
  out->push_back({"core.queries_per_request",
                  {core_queries / std::max<double>(1, w.requests), "count"}});

  const Intervals all = UnionOf(spans, [](const Span&) { return true; });
  out->push_back({"trace.unattributed_frac",
                  {1.0 - static_cast<double>(OverlapLength(all, {{w.start_ns, w.end_ns}})) / wall,
                   "ratio"}});
}

// ---- cold-uniform ----------------------------------------------------------

class ColdUniform final : public Bench {
 public:
  using Bench::Bench;

  ~ColdUniform() override { Teardown(); }

  void Setup(Tracer* tracer) override {
    const int64_t t0 = NowNs();
    Teardown();
    tracer_ = tracer;
    table_ = std::make_unique<data::Table>(data::SyntheticDmv(scale_.rows, kDataSeed));
    workload::QueryGenerator train_gen(*table_, {}, kDataSeed + 1);
    std::vector<workload::Query> train;
    std::unordered_set<uint64_t> train_fps;
    while (train.size() < scale_.train_queries) {
      workload::Query q = train_gen.Generate();
      if (train_fps.insert(q.Fingerprint()).second) train.push_back(std::move(q));
    }
    const std::vector<double> cards = Label(*table_, train, &times_.label_us_per_query);
    const workload::Workload labeled =
        workload::MakeLabeledWorkload(train, cards, table_->num_rows());

    core::UaeConfig cfg;
    cfg.hidden = scale_.hidden;
    cfg.ps_samples = scale_.ps_samples;
    cfg.query_batch = 8;
    cfg.seed = kDataSeed;
    auto uae = std::make_shared<core::Uae>(*table_, cfg);
    int64_t t = NowNs();
    uae->TrainDataEpochs(1);
    times_.train_data_epoch_s = SecondsSince(t);
    t = NowNs();
    uae->TrainHybridEpochs(labeled, 1);
    times_.train_hybrid_epoch_s = SecondsSince(t);
    t = NowNs();
    uae->TrainQuerySteps(labeled, scale_.dps_steps);
    times_.dps_step_ms = SecondsSince(t) * 1e3 / scale_.dps_steps;
    t = NowNs();
    (void)uae->FrozenBackend();
    times_.frozen_build_ms = SecondsSince(t) * 1e3;
    uae_ = uae;

    std::shared_ptr<const core::ServableModel> published = uae;
    if (tracer != nullptr) published = std::make_shared<TracedUae>(uae, tracer);
    references_[1] = uae;
    // One micro-batch per round of the closed loop: the batcher flushes when
    // every session's request is in, so batches do not fragment.
    serve::ServiceConfig service_cfg;
    service_cfg.max_batch = static_cast<size_t>(scale_.cold_inflight);
    service_ = std::make_unique<serve::EstimationService>(published, service_cfg);

    // Request stream: distinct generated queries, never seen in training.
    queries_.clear();
    seen_ = train_fps;
    gen_ = std::make_unique<workload::QueryGenerator>(*table_, workload::GeneratorConfig{},
                                                      opt_.seed);
    // Warm-up: the first few batches pay one-time allocation costs.
    workload::QueryGenerator warm_gen(*table_, {}, opt_.seed ^ 0x5eedULL);
    std::vector<workload::Query> warm;
    while (warm.size() < static_cast<size_t>(2 * scale_.cold_inflight)) {
      workload::Query q = warm_gen.Generate();
      if (seen_.insert(q.Fingerprint()).second) warm.push_back(std::move(q));
    }
    std::vector<std::future<serve::ServeResult>> futures;
    for (const workload::Query& q : warm) futures.push_back(service_->EstimateAsync(q));
    for (auto& f : futures) (void)f.get();
    setup_seconds = SecondsSince(t0);
  }

  Window Run(double seconds, uint64_t replay) override {
    Mark();
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    return ClosedLoop(
        service_.get(), scale_.cold_inflight, [this] { return NextKey(); },
        [this](uint32_t k) -> const workload::Query& { return queries_[k]; },
        [&](uint64_t submitted) {
          return replay > 0 ? submitted < replay : NowNs() < deadline;
        },
        tracer_);
  }

  std::vector<double> Truths(uint64_t, const std::vector<uint32_t>& keys) override {
    std::vector<workload::Query> batch;
    for (uint32_t k : keys) batch.push_back(queries_[k]);
    return Label(*table_, batch, nullptr);
  }

  void LayerMetrics(const Window& w, const std::vector<Span>& spans, Metrics* out) override {
    ServeMetrics(spans, out);
    ModelStackMetrics(w, spans, uae_.get(), out);
    AddSetupTimes(times_, out);
  }

  const workload::Query& Query(uint32_t key) const override { return queries_[key]; }
  size_t ModelBytes() const override { return uae_->SizeBytes(); }

 private:
  uint32_t NextKey() {
    for (;;) {
      workload::Query q = gen_->Generate();
      if (!seen_.insert(q.Fingerprint()).second) continue;
      queries_.push_back(std::move(q));
      return static_cast<uint32_t>(queries_.size() - 1);
    }
  }

  void Teardown() {
    service_.reset();
    references_.clear();
    uae_.reset();
    gen_.reset();
    queries_.clear();
    times_ = {};
    table_.reset();
  }

  std::unique_ptr<data::Table> table_;
  std::shared_ptr<const core::Uae> uae_;
  std::unique_ptr<workload::QueryGenerator> gen_;
  std::vector<workload::Query> queries_;
  std::unordered_set<uint64_t> seen_;
  SetupTimes times_;
};


// ---- hot-zipf ----------------------------------------------------------------

class HotZipf final : public Bench {
 public:
  using Bench::Bench;
  ~HotZipf() override { Teardown(); }

  void Setup(Tracer* tracer) override {
    const int64_t t0 = NowNs();
    Teardown();
    tracer_ = tracer;
    table_ = std::make_unique<data::Table>(data::SyntheticDmv(scale_.rows, kDataSeed));
    // Few filters per query: templates repeat, so router classes collect
    // enough feedback for the kNN fast path to be learned.
    workload::GeneratorConfig gc;
    gc.min_filters = 1;
    gc.max_filters = 2;
    workload::QueryGenerator gen(*table_, gc, kDataSeed + 2);
    std::unordered_set<uint64_t> fps;
    std::vector<workload::Query> feedback;
    while (pool_.size() < scale_.pool || feedback.size() < scale_.feedback) {
      workload::Query q = gen.Generate();
      if (!fps.insert(q.Fingerprint()).second) continue;
      if (feedback.size() < scale_.feedback) {
        feedback.push_back(std::move(q));
      } else {
        pool_.push_back(std::move(q));
      }
    }
    const std::vector<double> truths = Label(*table_, feedback, &times_.label_us_per_query);

    core::UaeConfig ucfg;
    ucfg.hidden = scale_.hidden;
    ucfg.ps_samples = kPrimarySamples;
    shard::ShardedServableConfig sc;
    sc.partition.num_shards = 4;
    sc.base_seed = kDataSeed;
    auto factory = [&](const data::Table& shard_table, int,
                       uint64_t shard_seed) -> std::shared_ptr<core::ServableModel> {
      core::UaeConfig cfg = ucfg;
      cfg.seed = shard_seed;
      auto uae = std::make_shared<core::Uae>(shard_table, cfg);
      int64_t t = NowNs();
      uae->TrainDataEpochs(1);
      times_.train_data_epoch_s += SecondsSince(t);
      t = NowNs();
      (void)uae->FrozenBackend();
      times_.frozen_build_ms += SecondsSince(t) * 1e3;
      shard_models_.push_back(uae);
      if (tracer != nullptr) return std::make_shared<TracedUae>(uae, tracer);
      return uae;
    };
    sharded_ = std::make_shared<shard::ShardedServable>(*table_, sc, factory);
    std::shared_ptr<core::ServableModel> primary = sharded_;
    if (tracer != nullptr) {
      primary = std::make_shared<TracedServable>("shard.estimate_cards", kDepthShard, sharded_,
                                                 tracer);
    }
    std::vector<int32_t> domains;
    for (int c = 0; c < table_->num_cols(); ++c) domains.push_back(table_->column(c).domain());
    auto floor = std::make_shared<estimators::HistogramAviEstimator>(*table_, 16);
    // No load probe: routing stays fixed while timing, so answers are pure.
    router_ = std::make_shared<router::HybridRouter>(primary, floor, domains);

    // Routing is learned from labeled feedback: the primary's own estimates
    // against the exact counts, folded in over a few rounds (promotion needs
    // consecutive eligible updates).
    const std::vector<double> ests = sharded_->EstimateCards(feedback);
    std::vector<online::FeedbackEntry> entries;
    for (size_t i = 0; i < feedback.size(); ++i) {
      online::FeedbackEntry e;
      e.query = feedback[i];
      e.true_card = truths[i];
      e.estimated_card = ests[i];
      e.generation = 1;
      entries.push_back(std::move(e));
    }
    for (int round = 0; round < 3; ++round) (void)router_->ObserveFeedback(entries);

    std::shared_ptr<const core::ServableModel> published = router_;
    if (tracer != nullptr) {
      published = std::make_shared<TracedServable>("router.estimate_cards", kDepthRouter, router_,
                                                   tracer);
    }
    references_[1] = router_;
    serve::ServiceConfig cfg;
    cfg.cache.capacity = scale_.cache;
    service_ = std::make_unique<serve::EstimationService>(published, cfg);

    // Which pool query is the r-th most popular is drawn from the seed.
    rank_to_pool_.resize(pool_.size());
    for (size_t i = 0; i < pool_.size(); ++i) rank_to_pool_[i] = static_cast<uint32_t>(i);
    util::Rng perm_rng(opt_.seed);
    perm_rng.Shuffle(&rank_to_pool_);
    rng_ = util::Rng(util::SplitMix64(opt_.seed));

    // Warm-up: fill the result cache with the popular queries.
    util::Rng warm_rng(util::SplitMix64(opt_.seed ^ 0x5eedULL));
    (void)ClosedLoop(
        service_.get(), scale_.inflight, [&] { return Draw(&warm_rng); },
        [this](uint32_t k) -> const workload::Query& { return pool_[k]; },
        [&](uint64_t submitted) { return submitted < scale_.warmup; }, nullptr);
    setup_seconds = SecondsSince(t0);
  }

  Window Run(double seconds, uint64_t replay) override {
    Mark();
    router_before_ = router_->RouterStats();
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    Window w = ClosedLoop(
        service_.get(), scale_.inflight, [this] { return Draw(&rng_); },
        [this](uint32_t k) -> const workload::Query& { return pool_[k]; },
        [&](uint64_t submitted) {
          return replay > 0 ? submitted < replay : NowNs() < deadline;
        },
        tracer_);
    // Verification calls the router directly; keep its counts out of these.
    router_after_ = router_->RouterStats();
    return w;
  }

  std::vector<double> Truths(uint64_t, const std::vector<uint32_t>& keys) override {
    std::vector<workload::Query> batch;
    for (uint32_t k : keys) batch.push_back(pool_[k]);
    return Label(*table_, batch, nullptr);
  }

  void LayerMetrics(const Window& w, const std::vector<Span>& spans, Metrics* out) override {
    ServeMetrics(spans, out);
    ModelStackMetrics(w, spans, shard_models_.front().get(), out);
    const router::RouterStatsSnapshot& after = router_after_;
    double total = 0;
    double by_backend[router::kNumBackends] = {};
    for (size_t b = 0; b < router::kNumBackends; ++b) {
      by_backend[b] = static_cast<double>(after.backends[b].requests -
                                          router_before_.backends[b].requests);
      total += by_backend[b];
    }
    total = std::max(1.0, total);
    out->push_back({"router.share.primary",
                    {by_backend[static_cast<size_t>(router::Backend::kPrimary)] / total, "ratio"}});
    out->push_back({"router.share.knn",
                    {by_backend[static_cast<size_t>(router::Backend::kKnn)] / total, "ratio"}});
    out->push_back({"router.share.floor",
                    {by_backend[static_cast<size_t>(router::Backend::kFloor)] / total, "ratio"}});
    // Shard fan-out of the requests the router sent to the sharded primary.
    std::vector<std::pair<const workload::Query*, uint64_t>> to_primary;
    for (const auto& [id, a] : w.answers) {
      const workload::Query& q = pool_[static_cast<uint32_t>(id)];
      if (a.misses > 0 && router_->RouteFor(q) == router::Backend::kPrimary) {
        to_primary.emplace_back(&q, a.misses);
      }
    }
    FanoutMetrics(sharded_->partitioner(), to_primary, out);
    AddSetupTimes(times_, out);
  }

  const workload::Query& Query(uint32_t key) const override { return pool_[key]; }
  size_t ModelBytes() const override { return router_->SizeBytes(); }

 private:
  static constexpr int kPrimarySamples = 200;

  uint32_t Draw(util::Rng* rng) {
    const auto rank = static_cast<size_t>(rng->Zipf(static_cast<int64_t>(pool_.size()), 1.0));
    return rank_to_pool_[rank];
  }

  void Teardown() {
    service_.reset();
    references_.clear();
    router_.reset();
    sharded_.reset();
    shard_models_.clear();
    pool_.clear();
    times_ = {};
    table_.reset();
  }

  std::unique_ptr<data::Table> table_;
  std::vector<workload::Query> pool_;
  std::vector<uint32_t> rank_to_pool_;
  std::vector<std::shared_ptr<const core::Uae>> shard_models_;
  std::shared_ptr<shard::ShardedServable> sharded_;
  std::shared_ptr<router::HybridRouter> router_;
  util::Rng rng_;
  SetupTimes times_;
  router::RouterStatsSnapshot router_before_;
  router::RouterStatsSnapshot router_after_;
};

// ---- ingest-mixed --------------------------------------------------------------

class IngestMixed final : public Bench {
 public:
  using Bench::Bench;
  ~IngestMixed() override { Teardown(); }

  void Setup(Tracer* tracer) override {
    const int64_t t0 = NowNs();
    Teardown();
    tracer_ = tracer;
    table_ = std::make_unique<data::Table>(data::SyntheticDmv(scale_.rows, kDataSeed));
    base_table_ = std::make_unique<data::Table>(*table_);

    shard::ShardedUaeConfig sc;
    sc.base.hidden = scale_.hidden;
    sc.base.ps_samples = kSamples;
    sc.base.seed = kDataSeed;
    sc.partition.num_shards = 4;
    model_ = std::make_shared<shard::ShardedUae>(*table_, sc);
    int64_t t = NowNs();
    model_->TrainDataEpochs(1);
    times_.train_data_epoch_s = SecondsSince(t);
    t = NowNs();
    for (int s = 0; s < model_->num_shards(); ++s) (void)model_->shard_model(s).FrozenBackend();
    times_.frozen_build_ms = SecondsSince(t) * 1e3;
    before_params_.clear();
    for (int s = 0; s < model_->num_shards(); ++s) before_params_.push_back(ShardParams(*model_, s));

    // The churn band is the last shard's code interval on the partition
    // column: every in-domain churn row lands in that shard.
    const shard::HorizontalPartitioner& part = model_->partitioner();
    const int pcol = part.partition_col();
    const data::Column& pcolumn = table_->column(pcol);
    const shard::ShardDescriptor& band = part.shard(part.num_shards() - 1);
    std::vector<std::vector<int32_t>> band_rows;
    for (size_t r = 0; r < table_->num_rows(); ++r) {
      const int32_t c = pcolumn.code_at(r);
      if (c >= band.code_lo && c <= band.code_hi) band_rows.push_back(table_->RowCodes(r));
    }
    // Streamed rows, drawn from the seed: copies of band rows, plus rows
    // carrying one value no dictionary has seen (answered by the exact tail).
    ucol_ = pcol == 0 ? 1 : 0;
    unseen_value_ = static_cast<int64_t>(table_->column(ucol_).domain()) + 7;
    util::Rng rng(util::SplitMix64(opt_.seed ^ 0xc4u));
    churn_.clear();
    const size_t every = std::max<size_t>(1, scale_.churn / scale_.unseen);
    size_t unseen = 0;
    for (size_t i = 0; i < scale_.churn + scale_.unseen; ++i) {
      Row row;
      row.codes = band_rows[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(band_rows.size()) - 1))];
      row.unseen = i % every == every - 1 && unseen < scale_.unseen;
      unseen += row.unseen;
      churn_.push_back(std::move(row));
    }

    // Reads: Zipf over band-targeted queries, the shape the churn changes.
    workload::GeneratorConfig gc;
    const double domain = pcolumn.domain();
    gc.center_min = band.code_lo / domain;
    gc.center_max = (band.code_hi + 1) / domain;
    gc.min_filters = 1;
    gc.max_filters = 2;
    gc.target_volume = 0.1;
    workload::QueryGenerator gen(*table_, gc, kDataSeed + 3);
    std::unordered_set<uint64_t> fps;
    while (pool_.size() < scale_.pool) {
      workload::Query q = gen.Generate();
      if (fps.insert(q.Fingerprint()).second) pool_.push_back(std::move(q));
    }
    base_truths_ = Label(*base_table_, pool_, &times_.label_us_per_query);

    std::shared_ptr<const core::ServableModel> published = model_;
    if (tracer != nullptr) {
      published = std::make_shared<TracedServable>("shard.estimate_cards", kDepthShard, model_,
                                                   tracer);
    }
    references_[1] = model_;
    serve::ServiceConfig cfg;
    cfg.cache.capacity = scale_.cache;
    service_ = std::make_unique<serve::EstimationService>(published, cfg);
    ingest::IngestConfig ic;
    ic.compact_min_delta = 0;  // The producer compacts on a fixed row cadence.
    ingest_ = std::make_unique<ingest::IngestService>(table_.get(), &part, ic);
    ingest::RefreshConfig rc;
    rc.staleness.trigger_rows = 256;
    rc.data_epochs = kRefreshEpochs;
    refresh_ = std::make_unique<ingest::RefreshController>(ingest_.get(), service_.get(), model_, rc);

    rng_ = util::Rng(util::SplitMix64(opt_.seed));
    util::Rng warm_rng(util::SplitMix64(opt_.seed ^ 0x5eedULL));
    (void)ClosedLoop(
        service_.get(), scale_.inflight, [&] { return Draw(&warm_rng); },
        [this](uint32_t k) -> const workload::Query& { return pool_[k]; },
        [&](uint64_t submitted) { return submitted < scale_.warmup; }, nullptr);
    setup_seconds = SecondsSince(t0);
  }

  Window Run(double seconds, uint64_t replay) override {
    Mark();
    std::atomic<bool> refreshed{false};
    append_ns_.clear();
    compact_ns_.clear();
    std::thread producer([&] {
      Produce();
      refreshed.store(true, std::memory_order_release);
    });
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    int64_t post_deadline = 0;
    uint64_t post_start = 0;
    bool post = false;
    Window w;
    try {
      w = ClosedLoop(
          service_.get(), scale_.inflight, [this] { return Draw(&rng_); },
          [this](uint32_t k) -> const workload::Query& { return pool_[k]; },
          [&](uint64_t submitted) {
            if (!post) {
              if (!refreshed.load(std::memory_order_acquire)) return true;
              post = true;
              post_start = submitted;
              post_deadline = std::max(deadline, NowNs() + kMinPostNs);
            }
            post_requests_ = submitted - post_start;
            return replay > 0 ? post_requests_ < replay : NowNs() < post_deadline;
          },
          tracer_);
    } catch (...) {
      producer.join();
      throw;
    }
    producer.join();
    return w;
  }

  uint64_t ReplayCount(const Window&) const override { return post_requests_; }

  std::vector<double> Truths(uint64_t generation, const std::vector<uint32_t>& keys) override {
    std::vector<double> out;
    if (generation == 1) {
      for (uint32_t k : keys) out.push_back(base_truths_[k]);
      return out;
    }
    std::vector<workload::Query> batch;
    for (uint32_t k : keys) batch.push_back(pool_[k]);
    return Label(*table_, batch, nullptr);
  }

  uint64_t ExtraChecks() override {
    uint64_t failed = 0;
    auto fail = [&](const char* what) {
      std::fprintf(stderr, "ingest-mixed check failed: %s\n", what);
      ++failed;
    };
    if (ingest_->stats().rows_appended != churn_.size()) fail("not every streamed row applied");
    if (result_.outcome != ingest::RefreshOutcome::kPublished) {
      fail("refresh did not publish");
      return failed;
    }
    const std::set<int> refit(result_.refreshed_shards.begin(), result_.refreshed_shards.end());
    if (refit.size() == static_cast<size_t>(model_->num_shards())) fail("every shard was refit");
    std::shared_ptr<const shard::ShardedUae> lineage = refresh_->current_base();
    for (int s = 0; s < model_->num_shards(); ++s) {
      if (refit.count(s) == 0 && ShardParams(*lineage, s) != before_params_[static_cast<size_t>(s)]) {
        fail("a shard that was not refit changed");
      }
    }
    // The unseen value answers exactly through the published tail.
    const data::Column& ucolumn = table_->column(ucol_);
    const std::optional<int32_t> ucode = ucolumn.CodeForValue(data::Value(unseen_value_));
    if (!ucode.has_value() || *ucode < ucolumn.domain()) {
      fail("unseen value has no overflow code");
      return failed;
    }
    workload::Query uq(table_->num_cols());
    workload::Predicate up;
    up.col = ucol_;
    up.op = workload::Op::kEq;
    up.code = *ucode;
    uq.AddPredicate(up, ucolumn.total_domain());
    const double est = refreshed_model_->EstimateCard(uq);
    if (tracer_ != nullptr) {
      refresh_train_s_ = ReplayRefit();
      if (replay_mismatch_) fail("replayed refit differs from the controller's");
    }
    const auto unseen = static_cast<double>(CountUnseen());
    if (workload::ExecuteCount(*table_, uq) != static_cast<int64_t>(unseen) || est < unseen ||
        est > unseen + 2.0) {
      fail("unseen value not answered exactly");
    }
    return failed;
  }

  void LayerMetrics(const Window& w, const std::vector<Span>& spans, Metrics* out) override {
    ServeMetrics(spans, out);
    ModelStackMetrics(w, spans, nullptr, out);
    std::vector<std::pair<const workload::Query*, uint64_t>> misses;
    for (const auto& [id, a] : w.answers) {
      if (a.misses > 0) misses.emplace_back(&pool_[static_cast<uint32_t>(id)], a.misses);
    }
    FanoutMetrics(model_->partitioner(), misses, out);
    out->push_back({"serve.publish_ms", {publish_ms_, "ms"}});
    std::vector<double> append_us;
    for (int64_t ns : append_ns_) append_us.push_back(static_cast<double>(ns) * 1e-3);
    out->push_back({"ingest.append_us_p99", {util::Quantile(append_us, 0.99), "us"}});
    double compact_ms = 0;
    for (int64_t ns : compact_ns_) compact_ms += static_cast<double>(ns) * 1e-6;
    out->push_back({"ingest.compact_ms",
                    {compact_ms / std::max<double>(1, compact_ns_.size()), "ms"}});
    out->push_back({"ingest.rows_rejected",
                    {static_cast<double>(ingest_->stats().rows_rejected), "count"}});
    out->push_back({"ingest.rows_per_s", {rows_per_s_, "rows/s"}});
    out->push_back({"ingest.refresh_s", {refresh_s_, "s"}});
    out->push_back({"ingest.shards_refit",
                    {static_cast<double>(result_.refreshed_shards.size()), "count"}});
    out->push_back({"ingest.refresh_train_s", {refresh_train_s_, "s"}});
    SetupTimes times = times_;
    times.frozen_build_ms = post_frozen_ms_;
    AddSetupTimes(times, out);
  }

  const workload::Query& Query(uint32_t key) const override { return pool_[key]; }
  size_t ModelBytes() const override { return model_->SizeBytes(); }

 private:
  static constexpr int kSamples = 200;
  static constexpr int kRefreshEpochs = 2;
  static constexpr size_t kCompactEvery = 4096;
  static constexpr size_t kBurstRows = 1000;
  static constexpr int64_t kBurstPeriodNs = 250'000'000;
  static constexpr int64_t kMinPostNs = 1'000'000'000;

  struct Row {
    std::vector<int32_t> codes;
    bool unseen = false;
  };

  static std::string ShardParams(const shard::ShardedUae& model, int s) {
    return nn::SerializeParams(model.shard_model(s).model().Parameters());
  }

  size_t CountUnseen() const {
    return static_cast<size_t>(
        std::count_if(churn_.begin(), churn_.end(), [](const Row& r) { return r.unseen; }));
  }

  uint32_t Draw(util::Rng* rng) {
    return static_cast<uint32_t>(rng->Zipf(static_cast<int64_t>(pool_.size()), 1.0));
  }

  /// The producer: streams the churn rows in bursts on a fixed schedule
  /// (timing each append, backpressure included, and each burst up to its
  /// Flush), compacts on a fixed row cadence, then refreshes.
  void Produce() {
    const int64_t t0 = NowNs();
    int64_t busy_ns = 0;
    for (size_t i = 0; i < churn_.size(); ++i) {
      if (i % kBurstRows == 0) {
        // Bursts are due every kBurstPeriodNs; a late producer does not sleep.
        const int64_t due = t0 + static_cast<int64_t>(i / kBurstRows) * kBurstPeriodNs;
        const int64_t now = NowNs();
        if (now < due) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        burst_t0_ = NowNs();
      }
      const Row& row = churn_[i];
      int64_t t = NowNs();
      if (row.unseen) {
        std::vector<data::Value> values;
        for (size_t c = 0; c < row.codes.size(); ++c) {
          values.push_back(static_cast<int>(c) == ucol_
                               ? data::Value(unseen_value_)
                               : table_->column(static_cast<int>(c)).ValueForCode(row.codes[c]));
        }
        ingest_->Append(std::move(values));
      } else {
        ingest_->AppendCodes(row.codes);
      }
      append_ns_.push_back(NowNs() - t);
      if ((i + 1) % kCompactEvery == 0) {
        t = NowNs();
        ingest_->CompactNow();
        compact_ns_.push_back(NowNs() - t);
      }
      if ((i + 1) % kBurstRows == 0 || i + 1 == churn_.size()) {
        ingest_->Flush();
        busy_ns += NowNs() - burst_t0_;
      }
    }
    rows_per_s_ = static_cast<double>(churn_.size()) / (static_cast<double>(busy_ns) * 1e-9);
    int64_t t = NowNs();
    result_ = refresh_->RefreshIfStale();
    refresh_s_ = SecondsSince(t);
    if (result_.outcome != ingest::RefreshOutcome::kPublished) return;
    refreshed_model_ = service_->CurrentSnapshot()->model;
    references_[result_.generation] = refreshed_model_;
    if (tracer_ == nullptr) return;
    // Traced run: build the refit shards' frozen planes, then republish the
    // refreshed model behind a tracing wrapper, timing both.
    std::shared_ptr<const shard::ShardedUae> lineage = refresh_->current_base();
    t = NowNs();
    for (int s : result_.refreshed_shards) (void)lineage->shard_model(s).FrozenBackend();
    post_frozen_ms_ = SecondsSince(t) * 1e3;
    auto wrapped = std::make_shared<TracedServable>(
        "shard.estimate_cards", kDepthShard,
        std::const_pointer_cast<core::ServableModel>(refreshed_model_), tracer_);
    t = NowNs();
    const uint64_t gen = service_->PublishSnapshot(wrapped);
    publish_ms_ = SecondsSince(t) * 1e3;
    references_[gen] = refreshed_model_;
  }

  /// Re-runs the refit of the traced refresh through public calls (clone the
  /// base, IngestShardRows on the refit shards' new rows) to time training
  /// alone; the result must match the controller's refit bitwise.
  double ReplayRefit() {
    if (result_.outcome != ingest::RefreshOutcome::kPublished) return 0.0;
    std::vector<size_t> rows;
    for (size_t i = 0; i < churn_.size(); ++i) {
      if (!churn_[i].unseen) rows.push_back(base_table_->num_rows() + i);
    }
    const data::Table delta = table_->Gather(rows, "replay_delta");
    std::unique_ptr<shard::ShardedUae> candidate = model_->Clone();
    const int64_t t = NowNs();
    for (int s : result_.refreshed_shards) candidate->IngestShardRows(s, delta, kRefreshEpochs);
    const double seconds = SecondsSince(t);
    std::shared_ptr<const shard::ShardedUae> lineage = refresh_->current_base();
    for (int s : result_.refreshed_shards) {
      if (ShardParams(*candidate, s) != ShardParams(*lineage, s)) replay_mismatch_ = true;
    }
    return seconds;
  }

  void Teardown() {
    refresh_.reset();
    ingest_.reset();
    service_.reset();
    references_.clear();
    refreshed_model_.reset();
    model_.reset();
    pool_.clear();
    times_ = {};
    result_ = {};
    base_table_.reset();
    table_.reset();
  }

  std::unique_ptr<data::Table> table_;
  std::unique_ptr<data::Table> base_table_;
  std::shared_ptr<shard::ShardedUae> model_;
  std::vector<std::string> before_params_;
  std::vector<workload::Query> pool_;
  std::vector<double> base_truths_;
  std::vector<Row> churn_;
  int ucol_ = 0;
  int64_t unseen_value_ = 0;
  std::unique_ptr<ingest::IngestService> ingest_;
  std::unique_ptr<ingest::RefreshController> refresh_;
  util::Rng rng_;
  SetupTimes times_;

  // Filled by the producer / the traced run.
  std::vector<int64_t> append_ns_;
  std::vector<int64_t> compact_ns_;
  int64_t burst_t0_ = 0;
  double rows_per_s_ = 0.0;
  double refresh_s_ = 0.0;
  double publish_ms_ = 0.0;
  double post_frozen_ms_ = 0.0;
  double refresh_train_s_ = 0.0;
  bool replay_mismatch_ = false;
  ingest::RefreshResult result_;
  std::shared_ptr<const core::ServableModel> refreshed_model_;
  uint64_t post_requests_ = 0;
};

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},       {"qps", "1/s"},         {"lat_p50_us", "us"},
    {"lat_p90_us", "us"},   {"qerr_p50", "ratio"},  {"qerr_gmean", "ratio"},
    {"model_bytes", "B"},   {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"serve.cache_hit_ratio", "ratio"},     {"serve.cache_probe_ns", "ns"},
    {"serve.submit_us", "us"},              {"serve.batch_size_mean", "count"},
    {"serve.queue_wait_us_p50", "us"},      {"serve.queue_wait_us_p99", "us"},
    {"serve.publish_ms", "ms"},             {"router.share.primary", "ratio"},
    {"router.share.knn", "ratio"},          {"router.share.floor", "ratio"},
    {"router.self_us", "us"},               {"shard.fanout_mean", "count"},
    {"shard.prune_ratio", "ratio"},         {"shard.estimate_us", "us"},
    {"core.targets_us", "us"},              {"core.sample_us", "us"},
    {"core.forward_rows_per_query", "count"}, {"core.dedup_ratio", "ratio"},
    {"core.self_share", "ratio"},           {"core.queries_per_request", "count"},
    {"core.frozen_build_ms", "ms"},
    {"nn.forward_us", "us"},                {"nn.forward_share", "ratio"},
    {"core.train_data_epoch_s", "s"},       {"core.train_hybrid_epoch_s", "s"},
    {"core.dps_step_ms", "ms"},             {"workload.label_us_per_query", "us"},
    {"ingest.append_us_p99", "us"},         {"ingest.compact_ms", "ms"},
    {"ingest.rows_rejected", "count"},      {"ingest.rows_per_s", "rows/s"},
    {"ingest.refresh_s", "s"},              {"ingest.refresh_train_s", "s"},
    {"ingest.shards_refit", "count"},       {"trace.unattributed_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

std::unique_ptr<Bench> MakeBench(const Options& opt, const Scale& scale) {
  if (opt.workload == "cold-uniform") return std::make_unique<ColdUniform>(opt, scale);
  if (opt.workload == "hot-zipf") return std::make_unique<HotZipf>(opt, scale);
  if (opt.workload == "ingest-mixed") return std::make_unique<IngestMixed>(opt, scale);
  return nullptr;
}

/// Throughput and latency percentiles taken per sub-window of the run and
/// reported as their interquartile means, so a few seconds of interference
/// from other tenants of the machine do not move a run's figures.
struct SteadyFigures {
  double qps = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  int windows = 0;
};

/// Mean of the values left after dropping the lowest and highest quarter.
double InterquartileMean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t drop = v.size() / 4;
  double sum = 0;
  for (size_t i = drop; i < v.size() - drop; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * drop);
}

SteadyFigures Steady(const Window& w) {
  // Whole sub-windows only; a short tail joins the last one.
  const int64_t span = w.end_ns - w.start_ns;
  const size_t n = std::max<size_t>(1, static_cast<size_t>(span / kSubWindowNs));
  std::vector<std::vector<float>> lat(n);
  for (size_t i = 0; i < w.latency_us.size(); ++i) {
    auto& into = lat[std::min(i, n - 1)];
    into.insert(into.end(), w.latency_us[i].begin(), w.latency_us[i].end());
  }
  std::vector<double> qps, p50, p90;
  for (size_t i = 0; i < n; ++i) {
    const int64_t len = i + 1 < n ? kSubWindowNs : span - static_cast<int64_t>(n - 1) * kSubWindowNs;
    qps.push_back(static_cast<double>(lat[i].size()) / (static_cast<double>(len) * 1e-9));
    if (lat[i].empty()) continue;
    const std::vector<double> l(lat[i].begin(), lat[i].end());
    p50.push_back(util::Quantile(l, 0.5));
    p90.push_back(util::Quantile(l, 0.9));
  }
  std::fprintf(stderr, "sub-window qps:");
  for (double q : qps) std::fprintf(stderr, " %.0f", q);
  std::fprintf(stderr, "\n");
  return SteadyFigures{InterquartileMean(qps), InterquartileMean(p50), InterquartileMean(p90),
                       static_cast<int>(n)};
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 std::span<const MetricSpec> specs, const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    double value = 0.0;
    for (const auto& [name, v] : metrics) {
      if (name == spec.name) value = v.first;
    }
    if (!std::isfinite(value)) value = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += first ? "" : ", ";
    out += "\"" + std::string(spec.name) + "\": {\"value\": " + buf + ", \"unit\": \"" +
           spec.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: perfbench_e2e --workload cold-uniform|hot-zipf|ingest-mixed "
               "--seed <n> --seconds <s> --trace <0|1> [--size full|min]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        opt.workload = value;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        opt.trace = value == "1";
      } else if (key == "--size") {
        opt.min_size = value == "min";
      } else {
        return Usage(("unknown flag " + key).c_str());
      }
    } catch (const std::exception&) {
      return Usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags come in --key value pairs");
  if (!(opt.seconds > 0)) return Usage("--seconds must be positive");
  const Scale scale = MakeScale(opt.min_size);
  if (MakeBench(opt, scale) == nullptr) return Usage(("unknown workload " + opt.workload).c_str());

  Metrics metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  if (!opt.trace) {
    std::unique_ptr<Bench> bench = MakeBench(opt, scale);
    std::vector<double> setups;
    for (int i = 0; i < scale.setups; ++i) {
      bench->Setup(nullptr);
      setups.push_back(bench->setup_seconds);
    }
    const Window w = bench->Run(opt.seconds, 0);
    const Verdict v = bench->Verify(w);
    attempted = v.attempted;
    failed = v.failed;
    const SteadyFigures f = Steady(w);
    std::fprintf(stderr,
                 "%s: %zu requests in %.2fs (%d sub-windows), %zu distinct answers checked\n",
                 opt.workload.c_str(), static_cast<size_t>(w.requests), w.Seconds(), f.windows,
                 v.qerrs.size());
    double log_qerr = 0;
    for (double q : v.qerrs) log_qerr += std::log(q);
    const double qerr_gmean = std::exp(log_qerr / std::max<size_t>(1, v.qerrs.size()));
    std::fprintf(stderr, "q-error p50 %.4f p90 %.4f p95 %.4f p99 %.4f gmean %.4f\n",
                 util::Quantile(v.qerrs, 0.5), util::Quantile(v.qerrs, 0.9),
                 util::Quantile(v.qerrs, 0.95), util::Quantile(v.qerrs, 0.99), qerr_gmean);
    metrics.push_back({"setup_s", {Median(setups), "s"}});
    metrics.push_back({"qps", {f.qps, "1/s"}});
    metrics.push_back({"lat_p50_us", {f.p50_us, "us"}});
    metrics.push_back({"lat_p90_us", {f.p90_us, "us"}});
    metrics.push_back({"qerr_p50", {util::Quantile(v.qerrs, 0.5), "ratio"}});
    metrics.push_back({"qerr_gmean", {qerr_gmean, "ratio"}});
    metrics.push_back({"model_bytes", {static_cast<double>(bench->ModelBytes()), "B"}});
    metrics.push_back({"peak_rss_mb", {PeakRssMb(), "MB"}});
    PrintResult(failed == 0, attempted, failed, kEndToEnd, metrics);
  } else {
    // Untraced window, then a traced replay of the same requests on a fresh
    // deployment. End-to-end numbers never come from the traced run.
    std::unique_ptr<Bench> bench = MakeBench(opt, scale);
    bench->Setup(nullptr);
    const Window untraced = bench->Run(opt.seconds / 2, 0);
    Verdict v = bench->Verify(untraced);
    attempted += v.attempted;
    failed += v.failed;
    const uint64_t replay = std::max<uint64_t>(1, bench->ReplayCount(untraced));
    bench.reset();

    Tracer tracer;
    bench = MakeBench(opt, scale);
    bench->Setup(&tracer);
    const Window traced = bench->Run(opt.seconds, replay);
    std::vector<Span> spans;
    for (const Span& s : tracer.Spans()) {
      if (s.start_ns >= traced.start_ns && s.end_ns <= traced.end_ns) spans.push_back(s);
    }
    v = bench->Verify(traced);
    attempted += v.attempted;
    failed += v.failed;
    bench->LayerMetrics(traced, spans, &metrics);
    auto qps = [](const Window& w) { return static_cast<double>(w.requests) / w.Seconds(); };
    metrics.push_back({"trace.overhead_frac", {1.0 - qps(traced) / qps(untraced), "ratio"}});
    std::fprintf(stderr, "%s: untraced %zu requests, traced replay %zu requests, %zu spans\n",
                 opt.workload.c_str(), static_cast<size_t>(untraced.requests),
                 static_cast<size_t>(traced.requests), spans.size());
    PrintResult(failed == 0, attempted, failed, kPerLayer, metrics);
  }
  if (failed > 0) {
    std::fprintf(stderr, "%llu of %llu requests failed their checks\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
