// End-to-end benchmark driver: runs one workload in one process and prints
// one JSON object on stdout (e2ebench/run.py wraps it; see README.md).
//
// Every workload has a train phase (repeated candle::run_real calls) and a
// serve phase (the trained checkpoint behind serve::InferenceServer under an
// open-loop Poisson load). This program only calls public entry points and
// times them from outside; --trace 1 adds the timeline and the per-layer
// probes, --trace 0 measures the end-to-end figures with tracing off.
//
// Usage: e2ebench_driver --workload NAME --seed N --seconds S --trace 0|1
//                        --workdir DIR [--smoke 1] [--reference-only 1]
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "candle/models.h"
#include "candle/profiler.h"
#include "candle/runner.h"
#include "candle/scaling.h"
#include "comm/communicator.h"
#include "common/parallel.h"
#include "io/binary_cache.h"
#include "io/csv_reader.h"
#include "nn/serialize.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "tensor/conv.h"
#include "tensor/gemm.h"
#include "trace/timeline.h"

namespace {

using candle::BenchmarkId;
using candle::Tensor;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One benchmark workload. The shapes and rates were chosen so that one
/// run of each takes about half a minute on a 4-core host while
/// ranks * threads never exceeds 4 (README.md gives the reasons).
struct Workload {
  std::string name;
  BenchmarkId id = BenchmarkId::kNT3;
  double scale = 0.002;
  std::size_t ranks = 1;
  std::size_t threads = 1;  // candle::parallel pool width
  candle::sim::ParallelLevel level = candle::sim::ParallelLevel::kEpoch;
  std::size_t total_epochs = 8;
  bool overlap = false;
  bool prefetch = false;
  bool cached = false;
  // Share of --seconds for training runs. The rest holds 5-7 serve passes:
  // with 0.7 there were 4, and serve_max_rps_at_slo, the highest over the
  // passes, spread up to 0.26 across seeds on the training workloads.
  double train_share = 0.6;
  // Open-loop ladder: offered rates (1/s) from stated_rate, times 4 until
  // a rung misses the SLO or max_rate is passed, then bisect_steps
  // geometric bisections between the last rung that met it and the first
  // that did not (5 steps over a factor of 4: 2^(1/16), ~4 %).
  // serve_p50/p90 are reported at stated_rate; slo_ms is the p99 limit
  // behind serve_max_rps_at_slo.
  double max_rate = 512000;
  int bisect_steps = 5;
  double stated_rate = 2000;
  double slo_ms = 25.0;
  // Floors every training run must meet, whatever the seed: test accuracy
  // at least min_accuracy, final loss at most max_loss.
  double min_accuracy = 0.0;
  double max_loss = 0.0;
};

std::vector<Workload> workloads(bool smoke) {
  using candle::sim::ParallelLevel;
  std::vector<Workload> w(4);
  w[0].name = "nt3-overlap-4r";
  w[0].id = BenchmarkId::kNT3;
  w[0].scale = 0.002;
  w[0].ranks = 4;
  w[0].total_epochs = 16;
  w[0].overlap = true;
  w[0].prefetch = true;
  // Two classes, little training: seeds 1-10 reach 0.47-0.74 accuracy and
  // a loss of 0.62-0.70 (ln 2 = 0.69 is the untrained loss).
  w[0].min_accuracy = 0.35;
  w[0].max_loss = 0.75;

  w[1].name = "p1b1-pool-1r";
  w[1].id = BenchmarkId::kP1B1;
  w[1].scale = 0.01;
  w[1].threads = 4;
  w[1].total_epochs = 4;
  w[1].prefetch = true;
  w[1].cached = true;
  // Autoencoder: accuracy is R^2 (-0.016 to -0.006 over seeds 1-10), the
  // loss is MSE (0.026-0.037).
  w[1].min_accuracy = -0.1;
  w[1].max_loss = 0.06;

  w[2].name = "p1b2-ingest-4r";
  w[2].id = BenchmarkId::kP1B2;
  w[2].scale = 0.04;
  w[2].ranks = 4;
  w[2].level = ParallelLevel::kBatchStep;
  w[2].total_epochs = 16;
  // 20 classes (chance 0.05): seeds 1-10 reach 0.29-0.41 accuracy and a
  // loss of 0.29-0.65.
  w[2].min_accuracy = 0.15;
  w[2].max_loss = 1.0;

  // The serving workload's train phase produces the checkpoint (1 rank,
  // pool width 1); half of its window serves.
  w[3].name = "serve-p1b2-open";
  w[3].id = BenchmarkId::kP1B2;
  w[3].scale = 0.02;
  w[3].total_epochs = 2;
  w[3].prefetch = true;
  w[3].train_share = 0.5;
  // Two epochs only: 0.19-0.31 accuracy, loss 2.22-2.51 (ln 20 = 3.0).
  w[3].min_accuracy = 0.1;
  w[3].max_loss = 2.9;

  if (smoke) {
    for (Workload& x : w) {
      x.scale = std::min(x.scale, x.id == BenchmarkId::kNT3 ? 0.002 : 0.005);
      x.total_epochs = x.ranks;
      x.max_rate = 200;
      x.bisect_steps = 0;
      x.stated_rate = 200;
      x.min_accuracy = -1e30;
      x.max_loss = 1e30;
    }
  }
  return w;
}

/// Failed operations are counted, never dropped: each one adds to
/// `failed` and keeps its message for the report.
struct Gate {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> messages;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (messages.size() < 20) messages.push_back(what);
  }
};

bool same_bits(float a, float b) {
  return std::memcmp(&a, &b, sizeof a) == 0 && std::isfinite(a);
}

candle::RealRunConfig run_config(const Workload& w, std::uint64_t seed,
                                 const std::string& workdir) {
  candle::RealRunConfig c;
  c.benchmark = w.id;
  c.ranks = w.ranks;
  c.total_epochs = w.total_epochs;
  c.level = w.level;
  c.loader = candle::io::LoaderKind::kChunked;
  c.cached_loads = w.cached;
  c.prefetch = w.prefetch;
  c.fusion.overlap = w.overlap;
  c.scale = w.scale;
  c.workdir = workdir;
  c.seed = seed;
  return c;
}

/// The reference path for the seed: the pandas-model CSV parser (not the
/// chunked one the timed runs use), no cache, synchronous allreduce, no
/// prefetch. It also writes the checkpoint the serve phase loads.
candle::RealRunConfig reference_config(const Workload& w, std::uint64_t seed,
                                       const std::string& workdir) {
  candle::RealRunConfig c = run_config(w, seed, workdir);
  c.loader = candle::io::LoaderKind::kOriginal;
  c.cached_loads = false;
  c.prefetch = false;
  c.fusion.overlap = false;
  c.checkpoint_every = candle::comp_epochs_balanced(w.total_epochs, w.ranks);
  return c;
}

/// Samples stepped per rank per epoch (batch-step level shards the rows).
std::size_t samples_per_rank_epoch(const Workload& w) {
  const std::size_t n = candle::scaled_geometry(w.id, w.scale).train_samples;
  return w.level == candle::sim::ParallelLevel::kBatchStep ? n / w.ranks : n;
}

/// Request rows: the test CSV's feature columns.
Tensor request_rows(const Workload& w, const std::string& test_csv) {
  candle::io::DataFrame df =
      candle::io::read_csv(test_csv, candle::io::LoaderKind::kChunked);
  const std::size_t skip = candle::benchmark_is_classification(w.id) ? 1 : 0;
  const std::size_t f = df.cols - skip;
  Tensor x({df.rows, f});
  for (std::size_t i = 0; i < df.rows; ++i)
    for (std::size_t j = 0; j < f; ++j) x.at(i, j) = df.at(i, j + skip);
  return x;
}

struct ServeRung {
  double rate = 0.0;
  std::vector<double> latencies_ms;
  bool ok = false;
};

/// `text` with the characters that would break a JSON string replaced.
std::string json_safe(std::string text) {
  for (char& c : text)
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) c = '\'';
  return text;
}

/// High-water resident set size of this process so far, in MB.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Nearest-rank percentile (p in [0, 100]; 0 is the minimum).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

class Bench {
 public:
  Bench(Workload w, std::uint64_t seed, double seconds, bool trace,
        bool smoke, std::string workdir)
      : w_(std::move(w)),
        seed_(seed),
        seconds_(seconds),
        trace_(trace),
        smoke_(smoke),
        workdir_(std::move(workdir)),
        geometry_(candle::scaled_geometry(w_.id, w_.scale)) {}

  /// With reference_only, stops after the reference run (run.py
  /// --record-reference keeps its figures in reference.json).
  void run(bool reference_only) {
    candle::parallel::set_num_threads(w_.threads);
    note("ranks", static_cast<double>(w_.ranks));
    note("pool_width", static_cast<double>(w_.threads));
    note("stated_rate", w_.stated_rate);
    note("slo_ms", w_.slo_ms);
    note("batch_deadline_ms", candle::serve::BatcherOptions{}.batch_deadline_s *
                                  1e3);
    // Untimed warm-up that doubles as the seed's reference result and
    // writes the checkpoint the serve phase loads.
    const auto ref_cfg = reference_config(w_, seed_, workdir_);
    ref_ = candle::run_real(ref_cfg);
    note("ref_test_accuracy", ref_.test_accuracy);
    note("ref_final_loss", ref_.final_loss);
    gate_.check(ref_.checkpoints_written == 1, "reference run: no checkpoint");
    check_floors(ref_, "reference run");
    if (reference_only) return;
    ckpt_ = candle::checkpoint_path(ref_cfg);
    csvs_ = candle::prepare_benchmark_csvs(ref_cfg);
    measure_setup();
    // Untimed warm-up of the timed configuration itself.
    (void)train_run(run_config(w_, seed_, workdir_), "warm-up run");
    note("peak_rss_before_serving_mb", peak_rss_mb());
    start_serving();
    if (trace_) {
      traced_train(w_.train_share * seconds_);
      candle::parallel::set_num_threads(1);
      traced_serve((1.0 - w_.train_share) * seconds_);
      candle::parallel::set_num_threads(w_.threads);
      layer_probes();
    } else {
      measure();
    }
    serving_.server->shutdown();
  }

  void print() const {
    std::printf("{\"workload\": \"%s\", \"attempted\": %zu, \"failed\": %zu",
                w_.name.c_str(), gate_.attempted, gate_.failed);
    std::printf(", \"failures\": [");
    for (std::size_t i = 0; i < gate_.messages.size(); ++i)
      std::printf("%s\"%s\"", i ? ", " : "",
                  json_safe(gate_.messages[i]).c_str());
    std::printf("], \"info\": {\"top_layers\": [");
    for (std::size_t i = 0; i < top_layers_.size(); ++i)
      std::printf("%s\"%s\"", i ? ", " : "", top_layers_[i].c_str());
    std::printf("]");
    for (const auto& [name, value] : info_)
      std::printf(", \"%s\": %.17g", name.c_str(), value);
    std::printf("}, \"metrics\": {");
    bool first = true;
    for (const auto& [name, value] : metrics_) {
      std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
      first = false;
    }
    std::printf("}}\n");
  }

 private:
  void put(const std::string& name, double value) { metrics_[name] = value; }
  void note(const std::string& name, double value) { info_[name] = value; }

  /// The seed-independent floors on a training result.
  void check_floors(const candle::RealRunResult& r, const std::string& what) {
    gate_.check(std::isfinite(r.test_accuracy) &&
                    r.test_accuracy >= w_.min_accuracy,
                what + ": test accuracy below the workload's floor");
    gate_.check(std::isfinite(r.final_loss) && r.final_loss <= w_.max_loss,
                what + ": final loss above the workload's ceiling");
  }

  /// setup_s: CSV synthesis + write, cache warm-up (cached workloads) and
  /// server start from the checkpoint; median of several set-ups (at least
  /// three, and more until a second has been spent: nt3's takes 60 ms),
  /// with the median of each part noted beside it.
  void measure_setup() {
    const auto cfg = run_config(w_, seed_, workdir_);
    std::vector<double> total, csv, cache, server_start;
    const Clock::time_point start = Clock::now();
    for (int rep = 0; smoke_ ? rep < 1 : rep < 3 || since(start) < 1.0;
         ++rep) {
      ::sync();
      const Clock::time_point t0 = Clock::now();
      candle::prepare_benchmark_csvs(cfg);
      csv.push_back(since(t0));
      Clock::time_point t1 = Clock::now();
      if (w_.cached) {
        for (const std::string& path : {csvs_.first, csvs_.second}) {
          std::filesystem::remove(candle::io::cache_path_for(path));
          (void)candle::io::read_csv_cached(path);
        }
      }
      cache.push_back(since(t1));
      t1 = Clock::now();
      {
        candle::serve::InferenceServer server;
        server.add_model_from_checkpoint(
            "m", candle::build_model(w_.id, geometry_), {geometry_.features},
            ckpt_);
        server.shutdown();
      }
      server_start.push_back(since(t1));
      total.push_back(since(t0));
    }
    if (trace_) return;
    put("setup_s", median(total));
    note("setup_csv_s", median(csv));
    note("setup_cache_s", median(cache));
    note("setup_server_s", median(server_start));
  }

  /// One checked run_real call. A run that throws or differs from the
  /// reference counts as failed and yields nothing.
  std::optional<candle::RealRunResult> train_run(
      const candle::RealRunConfig& cfg, const char* what) {
    // Flush earlier CSV writes so their write-back does not land inside
    // the run.
    ::sync();
    candle::RealRunResult r;
    try {
      r = candle::run_real(cfg);
    } catch (const std::exception& e) {
      gate_.check(false, std::string(what) + " threw: " + e.what());
      return std::nullopt;
    }
    const bool ok = same_bits(r.test_accuracy, ref_.test_accuracy) &&
                    same_bits(r.final_loss, ref_.final_loss);
    gate_.check(ok, std::string(what) + ": test accuracy / final loss "
                                        "differ from the reference run");
    check_floors(r, what);
    info_["train_runs"] += 1;
    if (!ok) return std::nullopt;
    return r;
  }

  /// The untraced measurement: training runs and serve ladder passes
  /// interleaved, train_share of the time on training, so a slow spell of
  /// the host lands on both phases instead of wiping out one.
  void measure() {
    const auto cfg = run_config(w_, seed_, workdir_);
    const double samples =
        static_cast<double>(samples_per_rank_epoch(w_) * w_.ranks);
    std::vector<double> total, load, rate, p50, p90, best, first_fail,
        pooled;
    const std::size_t min_runs = smoke_ ? 1 : 3;
    std::size_t runs = 0, passes = 0;
    double train_used = 0.0, serve_used = 0.0;
    const Clock::time_point t0 = Clock::now();
    while (since(t0) < seconds_ || runs < min_runs || passes < min_runs) {
      bool train = train_used <= w_.train_share * (train_used + serve_used);
      if (runs < min_runs && passes >= min_runs) train = true;
      if (passes < min_runs && runs >= min_runs) train = false;
      const Clock::time_point t1 = Clock::now();
      // Serving runs at pool width 1 on every workload, as on the serving
      // workload; training runs at the workload's width.
      candle::parallel::set_num_threads(train ? w_.threads : 1);
      if (train) {
        ++runs;
        if (const auto r = train_run(cfg, "timed run")) {
          total.push_back(r->total_s);
          load.push_back(r->data_load_s);
          // The initial broadcast wait is load imbalance between ranks
          // (time_to_train_s and candle.bcast_wait_s carry it), not
          // stepping.
          rate.push_back(samples * static_cast<double>(r->epochs_rank0) /
                         (r->train_s - r->broadcast_negotiate_s));
        }
        train_used += since(t1);
        continue;
      }
      // One ladder pass; p50/p90 are taken per pass at the stated rate.
      // The pass climbs until a rung misses the SLO, then bisects between
      // the last rung that met it and that one.
      ++passes;
      double pass_best = 0.0, pass_fail = 0.0;
      std::size_t k = 0;
      for (double r = w_.stated_rate; r <= w_.max_rate; r *= 4.0, ++k) {
        const ServeRung rung = run_rung(r, passes * 64 + k);
        if (rung.rate == w_.stated_rate && !rung.latencies_ms.empty()) {
          p50.push_back(percentile(rung.latencies_ms, 50.0));
          p90.push_back(percentile(rung.latencies_ms, 90.0));
          pooled.insert(pooled.end(), rung.latencies_ms.begin(),
                        rung.latencies_ms.end());
        }
        if (!rung.ok) {
          pass_fail = rung.rate;
          break;
        }
        pass_best = rung.rate;
      }
      first_fail.push_back(pass_fail);
      double hi = pass_fail;
      for (int b = 0; b < w_.bisect_steps && pass_best > 0.0 && hi > 0.0;
           ++b, ++k) {
        const double mid = std::sqrt(pass_best * hi);
        (run_rung(mid, passes * 64 + k).ok ? pass_best : hi) = mid;
      }
      best.push_back(pass_best);
      serve_used += since(t1);
      if (passes == 1) {
        // Peak RSS through set-up, the reference and warm-up runs, one
        // timed run and one serve pass up to the SLO limit, so the serve
        // path's allocations (batcher slots, loadgen schedules, futures)
        // are in it. Read at this fixed point, it does not depend on how
        // many repetitions fit in the window.
        put("peak_rss_mb", peak_rss_mb());
      }
    }
    // Every figure is the best of the window: the fastest training run,
    // the lowest-latency serve pass, the highest rate a pass sustained. The
    // 4-vCPU VM this benchmark was built on has slow spells (vCPUs 2-5x
    // slower) that covered from 0 to ~100 % of a window; medians and
    // quartiles over the window moved by up to 30 % between two sets of
    // runs taken minutes apart (README.md).
    put("time_to_train_s", percentile(total, 0.0));
    put("load_s", percentile(load, 0.0));
    put("train_samples_per_s", percentile(rate, 100.0));
    put("serve_p50_ms", percentile(p50, 0.0));
    put("serve_p90_ms", percentile(p90, 0.0));
    put("serve_max_rps_at_slo", percentile(best, 100.0));
    note("serve_first_fail_rps", median(first_fail));
    note("serve_p50_median_ms", median(p50));
    note("serve_passes", static_cast<double>(passes));
    note("serve_samples", static_cast<double>(pooled.size()));
    note("serve_p99_ms", percentile(pooled, 99.0));
  }

  /// The traced training runs: untraced and traced repetitions alternate,
  /// so the overhead of recording the timeline is measured in one process.
  /// With overlap a third, synchronous repetition is timed too; it must
  /// produce the same bits (the reference is synchronous).
  void traced_train(double budget_s) {
    const auto cfg = run_config(w_, seed_, workdir_);
    const std::size_t kinds = w_.overlap ? 3 : 2;
    std::vector<double> overlap_train, sync_train;
    std::vector<double> traced_total, untraced_total, attributed, load_t,
        pre_t, bcast_t, train_t, eval_t, allreduce, negotiate, bcast, stall,
        produce;
    const std::size_t min_runs = smoke_ ? 1 : 3;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0;; ++i) {
      if (i >= kinds * min_runs && since(t0) >= budget_s) break;
      const bool record = i % kinds == 1;
      const bool sync_path = i % kinds == 2;
      candle::RealRunConfig run = sync_path ? reference_config(w_, seed_,
                                                               workdir_)
                                            : cfg;
      run.checkpoint_every = 0;
      run.record_timeline = record;
      const auto result =
          train_run(run, sync_path ? "synchronous run" : "traced run");
      if (!result) continue;
      const candle::RealRunResult& r = *result;
      if (sync_path) {
        sync_train.push_back(r.train_s);
        continue;
      }
      (record ? traced_total : untraced_total).push_back(r.total_s);
      if (!record) {
        overlap_train.push_back(r.train_s);
        continue;
      }
      load_t.push_back(r.data_load_s);
      pre_t.push_back(r.preprocess_s);
      bcast_t.push_back(r.broadcast_negotiate_s);
      train_t.push_back(r.train_s);
      eval_t.push_back(r.evaluate_s);
      attributed.push_back((r.data_load_s + r.preprocess_s + r.train_s +
                            r.evaluate_s) /
                           r.total_s);
      const candle::trace::Timeline& tl = *r.timeline;
      allreduce.push_back(tl.total_duration(candle::trace::kNcclAllreduce));
      negotiate.push_back(
          tl.total_duration(candle::trace::kNegotiateAllreduce));
      bcast.push_back(tl.total_duration(candle::trace::kMpiBroadcast));
      stall.push_back(tl.total_duration(candle::trace::kPipelineStall));
      produce.push_back(tl.total_duration(candle::trace::kPipelineProduce));
      put("comm.allreduce_calls",
          static_cast<double>(r.comm_stats[0].allreduce_calls));
      put("comm.bytes_sent", static_cast<double>(r.comm_stats[0].bytes_sent));
    }
    put("candle.load_s", median(load_t));
    put("candle.preprocess_s", median(pre_t));
    put("candle.bcast_wait_s", median(bcast_t));
    put("candle.train_s", median(train_t));
    put("candle.eval_s", median(eval_t));
    put("candle.attributed_frac", median(attributed));
    put("hvd.allreduce_s", median(allreduce));
    put("hvd.negotiate_s", median(negotiate));
    put("hvd.bcast_s", median(bcast));
    // Both are 0 without prefetch: there is no producer thread.
    put("nn.pipeline_stall_s", median(stall));
    put("nn.pipeline_produce_s", median(produce));
    if (w_.overlap) {
      note("overlap_train_s", median(overlap_train));
      note("sync_train_s", median(sync_train));
    }
    put("trace.overhead_frac",
        median(traced_total) / median(untraced_total) - 1.0);
  }

  /// Starts the server from the checkpoint and checks sampled served rows
  /// against Model::predict bit for bit.
  void start_serving() {
    Serving& sv = serving_;
    sv.rows = request_rows(w_, csvs_.second);
    sv.ref = candle::build_model(w_.id, geometry_);
    sv.ref.compile_for_inference({geometry_.features});
    candle::nn::load_weights(sv.ref, ckpt_);
    sv.server = std::make_unique<candle::serve::InferenceServer>();
    sv.server->add_model_from_checkpoint(
        "m", candle::build_model(w_.id, geometry_), {geometry_.features},
        ckpt_);
    sv.sources = {{"m", &sv.rows, 1.0}};

    const std::size_t width = sv.rows.dim(1);
    const std::size_t sample = std::min<std::size_t>(64, sv.rows.dim(0));
    const Tensor expect =
        sv.ref.predict(candle::nn::take_rows(sv.rows, 0, sample));
    std::vector<std::future<candle::serve::Response>> futures;
    for (std::size_t i = 0; i < sample; ++i)
      futures.push_back(sv.server->submit(
          "m", std::span<const float>(sv.rows.data() + i * width, width)));
    const std::size_t out = expect.numel() / sample;
    for (std::size_t i = 0; i < sample; ++i) {
      const candle::serve::Response resp = futures[i].get();
      gate_.check(resp.y.numel() == out &&
                      std::memcmp(resp.y.data(), expect.data() + i * out,
                                  out * sizeof(float)) == 0,
                  "served row differs from Model::predict");
    }
  }

  /// One open-loop rung through serve::run_loadgen. A rung meets the SLO
  /// when its p99 is within the limit, every request completed, and the
  /// run ended within 10 % (+ the limit) of the last scheduled arrival, so
  /// no backlog was growing.
  ServeRung run_rung(double rate, std::size_t stream) {
    namespace serve = candle::serve;
    serve::LoadgenOptions o;
    o.mode = serve::LoopMode::kOpen;
    o.clients = 3;
    o.offered_rps = rate;
    // 0.3 s up to the stated rate (p50/p90 come from there); above it, the
    // SLO probes run 0.1 s with 1000 to 25600 requests. The cap shortens
    // only rungs over 256000/s, at least 1.5x over any limit measured here;
    // uncapped, the 51200 requests of a 512000/s rung raised peak RSS on
    // serve-p1b2-open from 68 to 107 MB in some runs.
    o.requests = static_cast<std::size_t>(
        smoke_ ? rate * 0.1
               : rate <= w_.stated_rate ? rate * 0.3
                                        : std::clamp(rate * 0.1, 1000.0,
                                                     25600.0));
    o.arrival = serve::ArrivalKind::kPoisson;
    o.seed = seed_ * 1000003ULL + stream;
    const double span =
        serve::make_schedule(o, serving_.sources).back().at_s;
    ServeRung rung;
    rung.rate = rate;
    serve::LoadgenReport report;
    try {
      report = serve::run_loadgen(*serving_.server, serving_.sources, o);
    } catch (const std::exception& e) {
      for (std::size_t i = 0; i < o.requests; ++i)
        gate_.check(false, std::string("loadgen failed: ") + e.what());
      return rung;
    }
    for (std::size_t i = 0; i < o.requests; ++i)
      gate_.check(i < report.completed, "request not completed");
    rung.latencies_ms = std::move(report.latencies_ms);
    rung.ok = report.completed == o.requests && report.p99_ms <= w_.slo_ms &&
              report.wall_s <= 1.1 * span + w_.slo_ms / 1e3;
    return rung;
  }

  /// Traced serve run: the benchmark's own paced open loop at the stated
  /// rate, so it can see how late the generator submits and check every
  /// served row.
  void traced_serve(double budget_s) {
    namespace serve = candle::serve;
    serve::LoadgenOptions o;
    o.mode = serve::LoopMode::kOpen;
    o.offered_rps = w_.stated_rate;
    o.requests = static_cast<std::size_t>(
        std::max(20.0, w_.stated_rate * budget_s * 0.8));
    o.seed = seed_ * 1000003ULL + 7;
    const auto schedule = serve::make_schedule(o, serving_.sources);
    const Tensor& rows = serving_.rows;
    serve::InferenceServer& server = *serving_.server;
    candle::nn::Model& ref = serving_.ref;
    const std::size_t width = rows.dim(1);
    const Tensor expect = ref.predict(rows);
    const std::size_t out = expect.numel() / rows.dim(0);
    const serve::BatcherStats before = server.stats("m");

    const std::size_t clients = 3;
    std::vector<double> late_ms(schedule.size(), 0.0);
    std::vector<std::future<serve::Response>> futures(schedule.size());
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (std::size_t e = c; e < schedule.size(); e += clients) {
          const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(
                                        schedule[e].at_s));
          std::this_thread::sleep_until(due);
          late_ms[e] =
              std::chrono::duration<double, std::milli>(Clock::now() - due)
                  .count();
          // A refused submit leaves the future empty; get() below then
          // throws and the request counts as failed.
          try {
            futures[e] = server.submit(
                "m", std::span<const float>(
                         rows.data() + schedule[e].row * width, width));
          } catch (const std::exception&) {
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (std::size_t e = 0; e < schedule.size(); ++e) {
      bool ok = false;
      try {
        const serve::Response resp = futures[e].get();
        ok = resp.y.numel() == out &&
             std::memcmp(resp.y.data(),
                         expect.data() + schedule[e].row * out,
                         out * sizeof(float)) == 0;
      } catch (const std::exception&) {
      }
      gate_.check(ok, "traced serve: row failed or differs from predict");
    }
    const serve::BatcherStats after = server.stats("m");
    const double batches = static_cast<double>(after.batches - before.batches);
    put("serve.mean_batch_rows",
        static_cast<double>(after.rows - before.rows) / batches);
    put("serve.deadline_close_frac",
        static_cast<double>(after.deadline_batches - before.deadline_batches) /
            batches);
    put("serve.gen_late_ms",
        std::accumulate(late_ms.begin(), late_ms.end(), 0.0) /
            static_cast<double>(late_ms.size()));

    const std::size_t b = std::min<std::size_t>(32, rows.dim(0));
    const Tensor x = candle::nn::take_rows(rows, 0, b);
    std::vector<double> ms;
    for (int rep = 0; rep < 30; ++rep) {
      const Clock::time_point p0 = Clock::now();
      const Tensor y = ref.predict(x);
      ms.push_back(since(p0) * 1e3);
      gate_.check(y.numel() == b * out, "predict returned a wrong shape");
    }
    put("serve.predict_ms", median(ms));
  }

  /// Per-layer calls timed from outside: profiler, io, tensor, pool, comm.
  void layer_probes() {
    // nn: the per-layer step profile at the workload's model and batch.
    const candle::StepProfile prof =
        candle::profile_step(w_.id, w_.scale, 0, smoke_ ? 1 : 5, seed_);
    put("nn.step_ms", prof.step_ms);
    std::vector<candle::LayerProfile> layers = prof.layers;
    std::stable_sort(layers.begin(), layers.end(),
                     [](const auto& a, const auto& b) {
                       return a.total_ms() > b.total_ms();
                     });
    for (std::size_t i = 0; i < 3; ++i) {
      const std::string p = "nn.top" + std::to_string(i + 1);
      put(p + ".fwd_ms", i < layers.size() ? layers[i].forward_ms : 0.0);
      put(p + ".bwd_ms", i < layers.size() ? layers[i].backward_ms : 0.0);
      top_layers_.push_back(i < layers.size() ? layers[i].layer : "-");
    }

    // io: the workload's loader over its train CSV, and the warm cache.
    std::vector<double> parse, cache;
    candle::io::CsvReadStats stats;
    for (int rep = 0; rep < 3; ++rep) {
      Clock::time_point t0 = Clock::now();
      (void)candle::io::read_csv(csvs_.first,
                                 candle::io::LoaderKind::kChunked, &stats);
      parse.push_back(since(t0));
      (void)candle::io::read_csv_cached(csvs_.first);
      t0 = Clock::now();
      (void)candle::io::read_csv_cached(csvs_.first);
      cache.push_back(since(t0));
    }
    put("io.parse_s", median(parse));
    put("io.csv_bytes", static_cast<double>(stats.bytes));
    put("io.parse_mb_per_s",
        static_cast<double>(stats.bytes) / 1e6 / median(parse));
    put("io.cache_load_s", median(cache));

    tensor_probes();
    pool_probe();
    comm_probe();
  }

  /// tensor: every Dense GEMM and Conv1D of the model, at the shapes the
  /// layer sees at the workload's batch (forward only).
  void tensor_probes() {
    candle::nn::Model model = candle::build_model(w_.id, geometry_);
    model.compile_for_inference({geometry_.features}, seed_);
    Tensor x({geometry_.batch, geometry_.features}, 0.5f);
    double gemm_flops = 0.0, gemm_s = 0.0, conv_flops = 0.0, conv_s = 0.0;
    const int reps = smoke_ ? 2 : 10;
    for (candle::nn::Layer* layer : model.layers()) {
      Tensor y = layer->forward(x, false);
      const std::vector<Tensor*> params = layer->params();
      if (!params.empty() && params[0]->rank() == 2 && x.rank() == 2) {
        const Tensor& w = *params[0];
        Tensor c({x.dim(0), w.dim(1)});
        std::vector<double> s;
        for (int rep = 0; rep < reps; ++rep) {
          const Clock::time_point t0 = Clock::now();
          candle::gemm(false, false, x, w, c);
          s.push_back(since(t0));
        }
        gemm_flops += 2.0 * static_cast<double>(x.dim(0) * x.dim(1) *
                                                w.dim(1));
        gemm_s += median(s);
      } else if (!params.empty() && params[0]->rank() == 3) {
        const Tensor& w = *params[0];
        const std::size_t k = w.dim(0), lout = y.dim(1);
        const std::size_t stride =
            lout > 1 ? (x.dim(1) - k) / (lout - 1) : 1;
        candle::Conv1dWorkspace ws;
        Tensor out;
        std::vector<double> s;
        for (int rep = 0; rep < reps; ++rep) {
          const Clock::time_point t0 = Clock::now();
          candle::conv1d_forward(x, w, *params[1], stride, out, &ws);
          s.push_back(since(t0));
        }
        conv_flops += 2.0 * static_cast<double>(x.dim(0) * lout * k *
                                                w.dim(1) * w.dim(2));
        conv_s += median(s);
      }
      x = std::move(y);
    }
    put("tensor.gemm_gflops", gemm_s > 0 ? gemm_flops / gemm_s / 1e9 : 0.0);
    put("tensor.conv1d_gflops", conv_s > 0 ? conv_flops / conv_s / 1e9 : 0.0);
  }

  /// common/parallel: wall time of one near-empty region at the pool width.
  void pool_probe() {
    std::vector<double> us;
    std::vector<double> sink(64, 0.0);
    for (int rep = 0; rep < 7; ++rep) {
      const Clock::time_point t0 = Clock::now();
      for (int i = 0; i < 200; ++i)
        candle::parallel::parallel_for(
            0, sink.size(), 1, [&](std::size_t b, std::size_t e) {
              for (std::size_t j = b; j < e; ++j) sink[j] += 1.0;
            });
      us.push_back(since(t0) * 1e6 / 200.0);
    }
    put("parallel.region_us", median(us));
  }

  /// comm: one fp32 ring allreduce of the model's gradient size across the
  /// workload's ranks (median over repetitions, timed on rank 0).
  void comm_probe() {
    candle::nn::Model model = candle::build_model(w_.id, geometry_);
    model.compile_for_inference({geometry_.features}, seed_);
    const std::size_t n = model.param_count();
    std::vector<double> us;
    candle::comm::World::run(w_.ranks, [&](candle::comm::Communicator& c) {
      std::vector<float> buf(n, 1.0f);
      for (int rep = 0; rep < 23; ++rep) {
        c.barrier();
        const Clock::time_point t0 = Clock::now();
        c.allreduce_sum(buf);
        if (c.rank() == 0 && rep >= 3) us.push_back(since(t0) * 1e6);
      }
    });
    put("comm.allreduce_us", median(us));
  }

  Workload w_;
  std::uint64_t seed_;
  double seconds_;
  bool trace_;
  bool smoke_;
  std::string workdir_;
  candle::ScaledGeometry geometry_;
  candle::RealRunResult ref_;
  std::string ckpt_;
  std::pair<std::string, std::string> csvs_;
  /// The serve phase's server, its request rows and the reference model
  /// served rows are checked against.
  struct Serving {
    Tensor rows;
    candle::nn::Model ref;
    std::unique_ptr<candle::serve::InferenceServer> server;
    std::vector<candle::serve::TrafficSource> sources;
  } serving_;
  Gate gate_;
  std::vector<std::string> top_layers_;
  std::map<std::string, double> metrics_;
  std::map<std::string, double> info_;  // context for the printed summary
};

}  // namespace

int main(int argc, char** argv) {
  // Hold glibc malloc in its steady state before any thread starts: one
  // arena, blocks under 32 MB from the heap, freed memory kept. By default
  // each new rank, producer and client thread draws an arena, and whether
  // a run's buffers page-fault depends on which one it gets: on
  // p1b1-pool-1r a process then loaded in 3 or 7.5 ms and trained in 0.37
  // or 0.5 s for its whole life, and peak RSS moved by 40 MB (README.md).
  mallopt(M_ARENA_MAX, 1);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument %s\n", argv[i]);
      return 2;
    }
    args[key.substr(2)] = argv[i + 1];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace",
                               "workdir"}) {
    if (args.count(required) == 0) {
      std::fprintf(stderr, "missing --%s\n", required);
      return 2;
    }
  }
  const bool smoke = args.count("smoke") != 0 && args["smoke"] == "1";
  const bool reference_only =
      args.count("reference-only") != 0 && args["reference-only"] == "1";
  for (const Workload& w : workloads(smoke)) {
    if (w.name != args["workload"]) continue;
    try {
      Bench bench(w, std::stoull(args["seed"]), std::stod(args["seconds"]),
                  args["trace"] == "1", smoke, args["workdir"]);
      bench.run(reference_only);
      bench.print();
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "e2ebench_driver: %s\n", e.what());
      return 1;
    }
  }
  std::fprintf(stderr, "unknown workload %s\n", args["workload"].c_str());
  return 2;
}
