#include "candle/runner.h"

#include <exception>
#include <span>

#include "common/error.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_annotations.h"
#include "hvd/broadcast.h"
#include "hvd/distributed_optimizer.h"
#include "io/binary_cache.h"
#include "io/csv_writer.h"
#include "nn/callbacks.h"
#include "nn/serialize.h"
#include "tensor/ops.h"

namespace candle {
namespace {

/// Writes a dataset to CSV in the benchmark's on-disk layout.
void write_dataset_csv(const std::string& path, const nn::Dataset& data,
                       BenchmarkId id) {
  io::CsvWriter writer(path);
  const std::size_t n = data.size();
  const std::size_t f = data.x.dim(1);
  const bool classifier = benchmark_is_classification(id);
  const std::vector<std::size_t> labels =
      classifier ? argmax_rows(data.y) : std::vector<std::size_t>{};
  std::vector<float> full(id == BenchmarkId::kP1B3 ? f + 1 : 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const float> row(data.x.data() + i * f, f);
    if (classifier) {
      // Label in column 0 (NT3/P1B2 layout).
      writer.write_labeled_row(static_cast<long long>(labels[i]), row);
    } else if (id == BenchmarkId::kP1B3) {
      // Regression target in column 0.
      full[0] = data.y.data()[i];
      std::copy(row.begin(), row.end(), full.begin() + 1);
      writer.write_row(full);
    } else {
      // Autoencoder: features only.
      writer.write_row(row);
    }
  }
  writer.close();
}

/// Parses a loaded frame back into a dataset (inverse of the writer),
/// keeping its first `keep` rows. Every row's label is checked, the
/// dropped ones' too, so a bad label fails the run wherever it sits.
nn::Dataset frame_to_dataset(io::DataFrame&& df, BenchmarkId id,
                             std::size_t classes, std::size_t keep) {
  const bool classifier = benchmark_is_classification(id);
  std::vector<std::size_t> labels;
  if (classifier) {
    labels.resize(df.rows);
    for (std::size_t i = 0; i < df.rows; ++i) {
      // (-1, classes) is where the truncating cast is defined and in range.
      const float label = df.at(i, 0);
      require(label > -1.0f && label < static_cast<float>(classes),
              "frame_to_dataset: label out of range");
      labels[i] = static_cast<std::size_t>(label);
    }
    labels.resize(keep);
  }
  df.rows = keep;
  df.data.resize(keep * df.cols);
  if (!classifier && id != BenchmarkId::kP1B3) {
    // Autoencoder: y == x.
    Tensor x = std::move(df).to_tensor();
    Tensor y = x;
    return nn::Dataset{std::move(x), std::move(y)};
  }
  // Column 0 is the label (classifiers) or the regression target (P1B3).
  const std::size_t f = df.cols - 1;
  Tensor x({keep, f});
  Tensor y = classifier ? Tensor{} : Tensor({keep, std::size_t{1}});
  for (std::size_t i = 0; i < keep; ++i) {
    const float* row = df.data.data() + i * df.cols;
    std::copy(row + 1, row + df.cols, x.data() + i * f);
    if (!classifier) y.data()[i] = row[0];
  }
  return nn::Dataset{std::move(x),
                     classifier ? nn::one_hot(labels, classes) : std::move(y)};
}

/// The run's read of rank `rank` of `world`'s rows of `path` (the io
/// load rule), through the binary frame cache when cached_loads is set.
io::DataFrame read_rows(const RealRunConfig& config, const std::string& path,
                        io::CsvReadStats* stats, std::size_t rank = 0,
                        std::size_t world = 1) {
  return config.cached_loads
             ? io::read_csv_cached(path, config.loader, stats, rank, world)
             : io::read_csv(path, config.loader, stats, rank, world);
}

/// Makes a load failure symmetric across the ranks of a sharded run. A
/// malformed cell or a bad label can sit in rows that only one rank reads,
/// so after assembly every rank shares its outcome through one allgather
/// (the step schedule's allreduce count stays untouched). A failed rank
/// rethrows its own error; every other rank throws the same type, naming
/// the lowest failed rank. No rank reaches the first broadcast alone.
void agree_on_load(comm::Communicator& communicator,
                   const std::exception_ptr& error) {
  float code = 0.0f;  // 0 ok, 1 IoError, 2 InvalidArgument, 3 other
  if (error) {
    try {
      std::rethrow_exception(error);
    } catch (const IoError&) {
      code = 1.0f;
    } catch (const InvalidArgument&) {
      code = 2.0f;
    } catch (...) {
      code = 3.0f;
    }
  }
  std::vector<float> codes;
  communicator.allgather(std::span<const float>(&code, 1), codes);
  if (error) std::rethrow_exception(error);
  for (std::size_t r = 0; r < codes.size(); ++r) {
    if (codes[r] == 0.0f) continue;
    const std::string msg =
        strprintf("run_real: rank %zu failed to load its training rows", r);
    if (codes[r] == 1.0f) throw IoError(msg);
    if (codes[r] == 2.0f) throw InvalidArgument(msg);
    throw Error(msg);
  }
}

}  // namespace

std::string checkpoint_path(const RealRunConfig& config) {
  return config.workdir + "/" + benchmark_name(config.benchmark) +
         strprintf("_s%llu", static_cast<unsigned long long>(config.seed)) +
         ".ckpt";
}

std::pair<std::string, std::string> prepare_benchmark_csvs(
    const RealRunConfig& config) {
  const ScaledGeometry geometry =
      scaled_geometry(config.benchmark, config.scale);
  const BenchmarkData data =
      make_benchmark_data(config.benchmark, geometry, config.seed);
  const std::string stem =
      config.workdir + "/" + benchmark_name(config.benchmark) +
      strprintf("_s%llu", static_cast<unsigned long long>(config.seed));
  const std::string train_path = stem + "_train.csv";
  const std::string test_path = stem + "_test.csv";
  write_dataset_csv(train_path, data.train, config.benchmark);
  write_dataset_csv(test_path, data.test, config.benchmark);
  return {train_path, test_path};
}

RealRunResult run_real(const RealRunConfig& config) {
  return run_real(config, prepare_benchmark_csvs(config));
}

RealRunResult run_real(const RealRunConfig& config,
                       const std::pair<std::string, std::string>& csvs) {
  require(config.ranks > 0, "run_real: ranks must be > 0");
  const bool channel_mode =
      config.layer_parallelism != nn::ParallelismMode::kData;
  // Channel parallelism shards weights, not data: every rank must step the
  // same batches in the same order (epoch-level replication), and a
  // rank-sharded model cannot round-trip through the single-file
  // checkpoint.
  require(!channel_mode || config.level == sim::ParallelLevel::kEpoch,
          "run_real: --layer-parallelism channel/auto requires epoch-level "
          "parallelism (all ranks must step identical batches)");
  require(!channel_mode || (config.checkpoint_every == 0 && !config.resume),
          "run_real: --layer-parallelism channel/auto is incompatible with "
          "checkpoint/resume (weights are rank-sharded)");
  const ScaledGeometry geometry =
      scaled_geometry(config.benchmark, config.scale);
  const std::size_t epochs_per_rank =
      config.weak_scaling
          ? config.total_epochs
          : comp_epochs_balanced(config.total_epochs, config.ranks);
  require(epochs_per_rank >= 1,
          "run_real: strong scaling leaves < 1 epoch per rank (the paper "
          "caps GPUs at total_epochs / min_epochs)");

  const std::size_t base_batch =
      config.batch == 0 ? geometry.batch : config.batch;
  const std::size_t batch =
      scaled_batch(base_batch, config.ranks, config.batch_scaling);
  const double base_lr = profile_for(config.benchmark).learning_rate;
  const double lr = config.scale_lr
                        ? scaled_learning_rate(base_lr, config.ranks)
                        : base_lr;

  const auto& [train_path, test_path] = csvs;
  // Ranks sharing the training rows: batch-step parallelism shards them.
  const std::size_t world =
      config.level == sim::ParallelLevel::kBatchStep ? config.ranks : 1;

  auto timeline = config.record_timeline
                      ? std::make_shared<trace::Timeline>()
                      : std::shared_ptr<trace::Timeline>{};
  Stopwatch clock;
  RealRunResult result;
  AnnotatedMutex result_mutex{CANDLE_LOCK_LEVEL(lock_order::level::kRunnerResult),
                              "runner::result_mutex"};

  comm::WorldOptions world_options;
  world_options.ranks_per_node = config.ranks_per_node;
  world_options.allreduce_algo = config.allreduce_algo;
  world_options.local_wire_dtype = config.local_wire_dtype;
  // The world default wire dtype stays fp32: gradient compression flows
  // per bucket through config.fusion.wire_dtype (local_wire_dtype only
  // compresses hierarchical intra-node legs), while broadcasts and scalar
  // metric reductions always stay exact.

  result.comm_stats = comm::World::run(
      config.ranks,
      [&](comm::Communicator& communicator) {
        hvd::Context ctx(communicator, timeline.get(), &clock);

        // --- Phase 1: data loading (real CSV parse, per rank). -----------
        // With cached_loads the parse happens once and later ranks/runs
        // map the binary cache. Under batch-step sharding rank r of P
        // reads only rows r, r+P, 2P+r, ... (its tail row included) and
        // trains on the first floor(n/P) of them, so every rank's step
        // count matches, which the synchronous allreduce requires.
        // frame_to_dataset checks every read row's label before that cut,
        // so every row of the file is checked by exactly one rank.
        double load_s = 0.0;
        double pre_begin = 0.0;
        io::CsvReadStats load_stats;
        nn::Dataset train;
        nn::Dataset test;
        std::exception_ptr load_error;
        try {
          const double load_begin = ctx.now();
          io::DataFrame train_frame =
              read_rows(config, train_path, &load_stats,
                        world > 1 ? ctx.rank() : 0, world);
          const std::size_t keep = load_stats.file_rows / world;
          load_stats.rows = keep;
          io::CsvReadStats test_stats;
          io::DataFrame test_frame = read_rows(config, test_path, &test_stats);
          load_s = ctx.now() - load_begin;
          ctx.record(trace::kDataLoading, "io", load_begin, load_s);

          // --- Phase 2: preprocessing. ------------------------------------
          pre_begin = ctx.now();
          train = frame_to_dataset(std::move(train_frame), config.benchmark,
                                   geometry.classes, keep);
          const std::size_t test_rows = test_frame.rows;
          test = frame_to_dataset(std::move(test_frame), config.benchmark,
                                  geometry.classes, test_rows);
        } catch (...) {
          load_error = std::current_exception();
        }
        // Inside the preprocessing window, so the wait for the slowest
        // rank's load is not charged to the initial broadcast.
        if (world > 1) {
          agree_on_load(communicator, load_error);
        } else if (load_error) {
          std::rethrow_exception(load_error);
        }
        const double pre_s = ctx.now() - pre_begin;
        ctx.record(trace::kPreprocessing, "io", pre_begin, pre_s);

        // --- Model: rank-distinct init, rank-0 weights win via broadcast.
        nn::Model model = build_model(config.benchmark, geometry);
        auto inner =
            nn::make_optimizer(benchmark_optimizer(config.benchmark), lr);
        auto distributed = std::make_unique<hvd::DistributedOptimizer>(
            std::move(inner), ctx, config.fusion);
        hvd::DistributedOptimizer* dist = distributed.get();
        nn::ParallelismOptions parallelism;
        parallelism.mode = config.layer_parallelism;
        parallelism.comm = &communicator;
        parallelism.batch_hint = batch;
        parallelism.wire_dtype = config.fusion.wire_dtype;
        // Channel mode needs a uniform seed: sharded layers slice one
        // shared full init, and every rank must draw the same shuffle
        // stream. Data mode keeps the rank-distinct init (rank 0 wins via
        // the broadcast below), preserving the existing runs bit-exactly.
        const std::uint64_t model_seed =
            channel_mode ? config.seed : config.seed + ctx.rank();
        model.compile({geometry.features}, std::move(distributed),
                      nn::make_loss(benchmark_loss(config.benchmark)),
                      model_seed, parallelism);
        // Overlap knob: reduce gradient buckets on a per-rank comm thread
        // during backward instead of a synchronous sweep after it.
        // Bit-identical either way (see hvd/bucket_scheduler.h).
        if (config.fusion.overlap) dist->enable_overlap(model);

        // Restart support: rank 0 restores the checkpoint; the broadcast
        // below distributes the restored weights to every rank.
        bool resumed = false;
        if (config.resume && ctx.rank() == 0 &&
            nn::is_checkpoint(checkpoint_path(config))) {
          nn::load_weights(model, checkpoint_path(config));
          resumed = true;
        }

        hvd::BroadcastGlobalVariablesHook broadcast_hook(ctx, 0);
        nn::ModelCheckpoint checkpoint_hook(
            checkpoint_path(config),
            config.checkpoint_every > 0 ? config.checkpoint_every : 1);

        std::vector<nn::Callback*> callbacks{&broadcast_hook};
        if (config.checkpoint_every > 0 && ctx.rank() == 0)
          callbacks.push_back(&checkpoint_hook);

        // --- Phases 3-4: broadcast + training. ----------------------------
        const double train_begin = ctx.now();
        nn::FitOptions fit;
        fit.epochs = epochs_per_rank;
        fit.batch_size = batch;
        fit.classification = benchmark_is_classification(config.benchmark);
        fit.prefetch = config.prefetch;
        fit.timeline = timeline.get();
        fit.timeline_clock = &clock;
        fit.timeline_rank = ctx.rank();
        const nn::History history = model.fit(train, fit, callbacks);
        const double train_s = ctx.now() - train_begin;

        // --- Phase 5: prediction / evaluation on test data. ---------------
        // Every rank evaluates the full test set; the metric is averaged
        // across ranks (identical under epoch-level parallelism, and the
        // consistent aggregate under sharding).
        const double eval_begin = ctx.now();
        const auto [test_loss, test_metric] =
            model.evaluate(test.x, test.y, fit.classification);
        (void)test_loss;
        const double avg_test_metric =
            communicator.allreduce_scalar(test_metric) /
            static_cast<double>(config.ranks);
        const double eval_s = ctx.now() - eval_begin;
        ctx.record(trace::kEvaluation, "compute", eval_begin, eval_s);

        if (ctx.rank() == 0) {
          MutexLock lock(result_mutex);
          result.data_load_s = load_s;
          result.preprocess_s = pre_s;
          result.broadcast_negotiate_s = broadcast_hook.negotiate_seconds();
          result.train_s = train_s;
          result.evaluate_s = eval_s;
          result.total_s = ctx.now();
          result.epochs_rank0 = epochs_per_rank;
          result.final_accuracy = history.final_accuracy();
          result.final_loss = history.final_loss();
          result.test_accuracy = static_cast<float>(avg_test_metric);
          result.history = history;
          result.load_stats = load_stats;
          result.resumed_from_checkpoint = resumed;
          result.checkpoints_written = checkpoint_hook.saves();
        }
      },
      world_options);

  result.timeline = timeline;
  return result;
}

}  // namespace candle
