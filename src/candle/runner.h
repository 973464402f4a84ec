// Real-mode parallel benchmark runner.
//
// Executes the paper's full control flow (Fig 2/3) with genuine work: rank
// threads each parse a real CSV with the selected loader (under batch-step
// sharding each rank assembles only the rows it trains on), preprocess,
// broadcast initial weights from rank 0, train with the Horovod
// DistributedOptimizer (ring allreduce per batch step), and evaluate on the
// test set. This is the small-scale ground truth that the simulator
// extrapolates; tests assert the two agree on the phase structure.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "candle/models.h"
#include "candle/scaling.h"
#include "comm/communicator.h"
#include "sim/run_sim.h"
#include "hvd/fusion.h"
#include "io/csv_reader.h"
#include "nn/model.h"
#include "trace/timeline.h"

namespace candle {

/// Configuration of one real-mode run.
struct RealRunConfig {
  BenchmarkId benchmark = BenchmarkId::kNT3;
  std::size_t ranks = 2;
  std::size_t total_epochs = 8;     // split by comp_epochs under strong scaling
  bool weak_scaling = false;        // true: every rank runs total_epochs

  // Parallelism level (paper Fig 3 / §2.3.1): epoch-level replicates the
  // full dataset on every rank (the paper's P1 setup); batch-step-level
  // shards each epoch's samples across ranks (rank r takes rows r, r+P,
  // ...), so steps/epoch divide by the rank count.
  sim::ParallelLevel level = sim::ParallelLevel::kEpoch;
  std::size_t batch = 0;            // 0 -> benchmark default
  BatchScaling batch_scaling = BatchScaling::kConstant;
  io::LoaderKind loader = io::LoaderKind::kChunked;

  // Input pipeline (paper §4 data-loading improvements):
  // cached_loads reads the CSVs through the mmap-able binary frame cache
  // (first run parses and publishes the cache; later runs map it). Either
  // way a batch-step rank reads only rows r, r+P, ... (io::read_csv's load
  // rule): from the cache that is ~1/P of the payload bytes per rank.
  bool cached_loads = false;
  // prefetch stages each rank's batches on a background producer thread
  // (double-buffered; bit-identical to the synchronous path — see
  // nn/batch_pipeline.h).
  bool prefetch = false;
  double scale = 0.002;             // dataset scale (see scaled_geometry)
  std::string workdir = "/tmp";     // where the synthetic CSVs are written
  bool scale_lr = true;             // linear lr scaling (§2.3.2)
  bool record_timeline = false;
  // fusion.overlap = true reduces gradient buckets on a per-rank comm
  // thread during backward (PyTorch-DDP/Horovod-style overlap) instead of
  // a synchronous sweep after it; results are bit-identical either way.
  // fusion.wire_dtype selects the on-wire gradient dtype (fp32 default;
  // fp16/bf16 halve and int8 quarters the collective payload with fp32
  // master accumulation — see comm/wire_codec.h for the error bounds).
  // fusion.error_feedback adds per-bucket residual compression (pair it
  // with int8; see hvd/fusion.h).
  hvd::FusionOptions fusion;

  // Collective topology/algorithm (quickstart --allreduce-algo /
  // --ranks-per-node): kHierarchical reduces intra-node first and rings
  // only the node leaders, matching Summit's NVLink-within/IB-between
  // layout; ranks_per_node controls how ranks map onto modeled nodes.
  comm::AllreduceAlgo allreduce_algo = comm::AllreduceAlgo::kRing;
  std::size_t ranks_per_node = 6;   // Summit node: 6 V100s (Fig 5b)

  // On-wire dtype of the hierarchical algorithm's intra-node legs
  // (quickstart --local-wire-dtype): compresses the NVLink-tier member
  // exchanges independently of the per-bucket inter-node dtype above.
  // Ignored unless allreduce_algo is kHierarchical.
  comm::WireDtype local_wire_dtype = comm::WireDtype::kFp32;
  std::uint64_t seed = 7;

  // Per-layer tensor parallelism (quickstart --layer-parallelism, see
  // nn/parallelism.h): kData replicates every layer; kChannel shards every
  // Dense/Conv1D output channel-wise across ranks; kAuto shards exactly
  // the layers whose weight-gradient allreduce outweighs the activation
  // exchange. Channel/auto require epoch-level parallelism (all ranks step
  // identical batches from an identical shuffle stream — the runner uses a
  // uniform seed) and are incompatible with checkpoint/resume (weights are
  // rank-sharded).
  nn::ParallelismMode layer_parallelism = nn::ParallelismMode::kData;

  // Checkpoint/restart (the paper's §7 fault-tolerance future work):
  // rank 0 saves weights every `checkpoint_every` epochs (0 disables);
  // with `resume`, rank 0 loads the checkpoint before training and the
  // initial broadcast distributes the restored weights to all ranks.
  std::size_t checkpoint_every = 0;
  bool resume = false;
};

/// Measured results (rank-0 view; ranks are symmetric).
struct RealRunResult {
  // Rank 0's train + test read. Under batch-step sharding (ranks > 1) the
  // train read is rank 0's rows only (io::read_csv's load rule).
  double data_load_s = 0.0;
  // Assembly of the datasets; under batch-step sharding it also holds the
  // ranks' load agreement, so it absorbs the wait for the slowest load.
  double preprocess_s = 0.0;
  double broadcast_negotiate_s = 0.0;  // straggler wait at initial broadcast
  double train_s = 0.0;
  double evaluate_s = 0.0;
  double total_s = 0.0;
  std::size_t epochs_rank0 = 0;
  float final_accuracy = 0.0f;      // train metric (accuracy or R²)
  float test_accuracy = 0.0f;
  float final_loss = 0.0f;
  nn::History history;              // rank 0's epochs
  // Rank 0's train-read stats; `rows` counts the rows rank 0 trains on
  // (its equal shard under batch-step sharding), `file_rows` the file's.
  io::CsvReadStats load_stats;
  std::vector<comm::CommStats> comm_stats;  // per rank
  std::shared_ptr<trace::Timeline> timeline;
  bool resumed_from_checkpoint = false;
  std::size_t checkpoints_written = 0;
};

/// Path of the run's checkpoint file under config.workdir.
std::string checkpoint_path(const RealRunConfig& config);

/// Writes the run's synthetic train/test CSVs (train.csv/test.csv under
/// `workdir`, labeled layout for classifiers) and returns their paths.
/// Deterministic in (benchmark, scale, seed).
std::pair<std::string, std::string> prepare_benchmark_csvs(
    const RealRunConfig& config);

/// Runs the parallel benchmark end to end: writes the run's CSVs with
/// prepare_benchmark_csvs, then runs on them. Throws on invalid configs
/// (e.g. epochs-per-rank of zero under strong scaling).
RealRunResult run_real(const RealRunConfig& config);

/// Runs on already-written (train, test) CSVs in the layout
/// prepare_benchmark_csvs writes. A load failure on any rank (a missing or
/// malformed file, a ragged row, a label outside [0, classes)) fails every
/// rank with the same error type before the initial broadcast.
RealRunResult run_real(const RealRunConfig& config,
                       const std::pair<std::string, std::string>& csvs);

}  // namespace candle
