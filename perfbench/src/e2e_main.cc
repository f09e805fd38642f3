// perfbench_e2e: one step of the end-to-end benchmark per invocation.
// perfbench/run.py drives it; every mode prints one JSON object as the last
// line of its standard output.
//
//   perfbench_e2e sysinfo
//   perfbench_e2e config      --workload=W
//   perfbench_e2e generate    --workload=W --seed=S --root=DIR
//   perfbench_e2e decompose   --workload=W --root=DIR [--local]
//                             [--trace-out=FILE]
//   perfbench_e2e probe       --workload=W --seed=S --root=DIR
//   perfbench_e2e dist-worker --root=DIR --port=P --id=N --out=FILE [--trace]
//
// `decompose` runs the full pipeline once on the store `generate` left in
// DIR (Phase 1, Phase 2 — in-process, or across forked worker processes
// for a dist workload unless --local — and the assembly of the final
// factors) and reports the end-to-end numbers, the per-layer numbers it can
// read from outside the program, and its correctness checks. Every layer is
// timed from the outside: spans around calls into public functions, the
// storage Env wrapped by the bench's own instrument.

#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/block_factors.h"
#include "core/cost_model.h"
#include "core/phase2_engine.h"
#include "core/progress_observer.h"
#include "core/swap_simulator.h"
#include "core/two_phase_cp.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "grid/manifest.h"
#include "instrumented_env.h"
#include "linalg/kernels.h"
#include "parallel/thread_pool.h"
#include "probes.h"
#include "schedule/planner.h"
#include "storage/env_uri.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using tpcp::JsonValue;
using tpcp::Status;

constexpr const char* kTensorPrefix = "tensor";
constexpr const char* kFactorPrefix = "factors";
constexpr double kMiB = 1024.0 * 1024.0;

using Flags = std::map<std::string, std::string>;

std::string Flag(const Flags& flags, const std::string& key,
                 const std::string& fallback = "") {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

void PrintJson(const JsonValue& json) {
  std::printf("%s\n", json.Serialize().c_str());
  std::fflush(stdout);
}

int Fail(const std::string& why) {
  JsonValue out = JsonValue::Object();
  out.Set("ok", false);
  out.Set("error", why);
  PrintJson(out);
  return 1;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Peak resident set of this process so far (VmHWM), in KiB.
int64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoll(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

double CpuSeconds(int who) {
  rusage usage{};
  ::getrusage(who, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec +
                             usage.ru_stime.tv_usec) /
             1e6;
}

std::string ReadText(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  while (!text.empty() && (text.back() == '\n' || text.back() == ' ')) {
    text.pop_back();
  }
  return text;
}

// ---- sysinfo ----------------------------------------------------------------

JsonValue SysInfo() {
  JsonValue info = JsonValue::Object();
  info.Set("nproc",
           static_cast<int64_t>(std::thread::hardware_concurrency()));
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        info.Set("cpu_model", line.substr(colon + 2));
      }
      break;
    }
  }
  JsonValue caches = JsonValue::Array();
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    const std::string size = ReadText(dir + "/size");
    if (size.empty()) break;
    caches.Append("L" + ReadText(dir + "/level") + " " +
                  ReadText(dir + "/type") + " " + size);
  }
  info.Set("caches", std::move(caches));
  info.Set("simd_target", tpcp::SimdTargetName());
  info.Set("build_type", PERFBENCH_BUILD_TYPE);
  info.Set("compiler", __VERSION__);
  return info;
}

// ---- generate ---------------------------------------------------------------

int Generate(const Workload& w, const Flags& flags) {
  const std::string root = Flag(flags, "root");
  const uint64_t seed = std::strtoull(Flag(flags, "seed", "1").c_str(),
                                      nullptr, 10);
  auto env = tpcp::OpenEnv("posix://" + root);
  if (!env.ok()) return Fail(env.status().ToString());
  const int64_t start = NowNs();
  auto store = tpcp::BlockTensorStore::Create(env->get(), kTensorPrefix,
                                              w.Grid());
  if (!store.ok()) return Fail(store.status().ToString());
  const Status s = tpcp::GenerateLowRankIntoStore(w.Spec(seed), &*store);
  if (!s.ok()) return Fail(s.ToString());
  const double seconds = Seconds(NowNs() - start);
  JsonValue out = JsonValue::Object();
  out.Set("ok", true);
  out.Set("setup_s", seconds);
  out.Set("bytes", (*env)->stats().bytes_written());
  PrintJson(out);
  return 0;
}

// ---- probe ------------------------------------------------------------------

int Probe(const Workload& w, const Flags& flags) {
  const uint64_t seed = std::strtoull(Flag(flags, "seed", "1").c_str(),
                                      nullptr, 10);
  auto opened = tpcp::OpenEnv("posix://" + Flag(flags, "root"));
  if (!opened.ok()) return Fail(opened.status().ToString());
  InstrumentedEnv env(opened->get());
  auto store = tpcp::BlockTensorStore::Open(&env, kTensorPrefix);
  if (!store.ok()) return Fail(store.status().ToString());
  const double decode_ms = BlockDecodeMs(*store, env);
  const KernelProbe kernel = RunKernelProbe(*store, w.options, seed, 4);
  JsonValue layers = JsonValue::Object();
  layers.Set("grid.block_decode_ms", decode_ms);
  layers.Set("cp.block_ms", kernel.block_ms);
  layers.Set("cp.iters_per_block", kernel.iters_per_block);
  layers.Set("tensor.mttkrp_ms", kernel.mttkrp_ms);
  layers.Set("tensor.mttkrp_gflops", kernel.mttkrp_gflops);
  layers.Set("cp.solve_ms", kernel.solve_ms);
  layers.Set("cp.fit_ms", kernel.fit_ms);
  JsonValue out = JsonValue::Object();
  out.Set("ok", true);
  out.Set("layers", std::move(layers));
  PrintJson(out);
  return 0;
}

// ---- dist worker ------------------------------------------------------------

/// Worker process: serves the dist protocol through its own storage
/// instrument, then leaves its counters (and spans) in --out for the
/// coordinating process to merge.
int DistWorker(const Flags& flags) {
  const bool trace = flags.count("trace") > 0;
  if (trace) Tracer::Enable();
  auto opened = tpcp::OpenEnv("posix://" + Flag(flags, "root"));
  if (!opened.ok()) return 1;
  InstrumentedEnv env(opened->get());
  const int port = std::atoi(Flag(flags, "port").c_str());
  const int id = std::atoi(Flag(flags, "id").c_str());
  Status s;
  {
    ScopedSpan span("ServeDistWorker", "dist", /*ambient=*/true);
    s = tpcp::ServeDistWorker(&env, kFactorPrefix, port, id);
  }
  std::string why;
  JsonValue stats = JsonValue::Object();
  stats.Set("ok", s.ok());
  stats.Set("error", s.ToString());
  stats.Set("iostats_match", env.MatchesIoStats(&why));
  stats.Set("iostats_why", why);
  stats.Set("storage", env.Counts().ToJson());
  stats.Set("peak_rss_kb", PeakRssKb());
  std::string text = "{\"stats\":" + stats.Serialize() + ",\"spans\":" +
                     RenderSpanArray(Tracer::Snapshot()) + "}\n";
  std::FILE* f = std::fopen(Flag(flags, "out").c_str(), "wb");
  if (f == nullptr) return 1;
  const bool written = std::fwrite(text.data(), 1, text.size(), f) ==
                       text.size();
  const bool closed = std::fclose(f) == 0;
  return s.ok() && written && closed ? 0 : 1;
}

// ---- decompose --------------------------------------------------------------

/// Observer timing virtual iterations from OnVirtualIteration callbacks
/// and, when tracing, turning them into "vi" spans under RunPhase2.
class ViClock : public tpcp::ProgressObserver {
 public:
  void Start() {
    last_ns_ = NowNs();
    if (Tracer::enabled()) open_ = Tracer::Begin("vi", "core", true);
  }
  void OnVirtualIteration(int, double, uint64_t) override {
    const int64_t now = NowNs();
    vi_ms_.push_back(static_cast<double>(now - last_ns_) / 1e6);
    last_ns_ = now;
    if (open_ != 0) {
      // The first span also carries the engine's set-up.
      Tracer::End(open_, vi_ms_.size() == 1 ? "setup+vi" : nullptr);
      open_ = Tracer::Begin("vi", "core", true);
    }
  }
  /// Closes the span after the last iteration: the final flush.
  void Finish() {
    if (open_ != 0) Tracer::End(open_, "flush");
    open_ = 0;
  }
  /// Median iteration time, leaving out the first (it includes set-up).
  double ViMs() const {
    if (vi_ms_.size() < 2) return vi_ms_.empty() ? 0.0 : vi_ms_[0];
    return Median(std::vector<double>(vi_ms_.begin() + 1, vi_ms_.end()));
  }

 private:
  int64_t last_ns_ = 0;
  int64_t open_ = 0;
  std::vector<double> vi_ms_;
};

/// What a forked 2-worker Phase 2 measured.
struct DistOutcome {
  Status status;
  tpcp::DistributedRunResult result;
  double wall_s = 0.0;
  double coord_cpu_s = 0.0;
  double worker_cpu_s = 0.0;
  bool workers_clean = true;
  bool workers_iostats_match = true;
  std::string why;
  StorageCounts worker_storage;
  int64_t max_worker_rss_kb = 0;
};

DistOutcome RunDist(const Workload& w, const std::string& root,
                    tpcp::BlockFactorStore* factors,
                    const tpcp::TwoPhaseCpOptions& options) {
  DistOutcome out;
  const bool trace = Tracer::enabled();
  std::vector<pid_t> children;
  std::map<int, std::string> stat_files;
  tpcp::DistributedRunOptions dopts;
  dopts.num_workers = w.dist_workers;
  dopts.overlap = w.dist_overlap;
  dopts.log = [](const std::string& line) {
    std::fprintf(stderr, "%s\n", line.c_str());
  };
  dopts.spawn_worker = [&](int port, int worker) -> Status {
    const std::string out_file =
        root + "/worker" + std::to_string(worker) + ".json";
    stat_files[worker] = out_file;
    const pid_t pid = ::fork();
    if (pid < 0) return Status::IOError("fork failed");
    if (pid == 0) {
      const std::string a_root = "--root=" + root;
      const std::string a_port = "--port=" + std::to_string(port);
      const std::string a_id = "--id=" + std::to_string(worker);
      const std::string a_out = "--out=" + out_file;
      ::execl("/proc/self/exe", "perfbench_e2e", "dist-worker",
              a_root.c_str(), a_port.c_str(), a_id.c_str(), a_out.c_str(),
              trace ? "--trace" : static_cast<char*>(nullptr),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    children.push_back(pid);
    return Status::OK();
  };

  const double cpu_before = CpuSeconds(RUSAGE_SELF);
  const int64_t start = NowNs();
  {
    ScopedSpan span("RunDistributedPhase2", "dist", /*ambient=*/true);
    out.status =
        tpcp::RunDistributedPhase2(factors, options, dopts, &out.result);
    for (const pid_t pid : children) {
      int wstatus = 0;
      if (::waitpid(pid, &wstatus, 0) != pid || !WIFEXITED(wstatus) ||
          WEXITSTATUS(wstatus) != 0) {
        out.workers_clean = false;
      }
    }
  }
  out.wall_s = Seconds(NowNs() - start);
  out.coord_cpu_s = CpuSeconds(RUSAGE_SELF) - cpu_before;
  out.worker_cpu_s = CpuSeconds(RUSAGE_CHILDREN);

  for (const auto& [worker, file] : stat_files) {
    auto parsed = JsonValue::Parse(ReadText(file));
    const JsonValue* stats = parsed.ok() ? parsed->Find("stats") : nullptr;
    if (stats == nullptr) {
      out.workers_clean = false;
      out.why += "worker " + std::to_string(worker) + ": no stats; ";
      continue;
    }
    if (!stats->Find("iostats_match")->bool_value()) {
      out.workers_iostats_match = false;
      out.why += "worker " + std::to_string(worker) + ": " +
                 stats->Find("iostats_why")->string_value() + "; ";
    }
    out.worker_storage += StorageCounts::FromJson(*stats->Find("storage"));
    out.max_worker_rss_kb = std::max(
        out.max_worker_rss_kb, stats->Find("peak_rss_kb")->int_value());
    for (const JsonValue& e : parsed->Find("spans")->array_items()) {
      SpanEvent event;
      event.name = e.Find("name")->string_value();
      event.layer = e.Find("cat")->string_value();
      event.start_ns =
          static_cast<int64_t>(e.Find("ts")->number_value() * 1e3);
      event.end_ns = event.start_ns + static_cast<int64_t>(
                                          e.Find("dur")->number_value() * 1e3);
      event.pid = static_cast<int>(e.Find("pid")->int_value());
      event.tid = static_cast<int>(e.Find("tid")->int_value());
      const JsonValue* args = e.Find("args");
      event.id = args->Find("id")->int_value();
      event.parent = args->Find("parent")->int_value();
      Tracer::AddForeign(std::move(event));
    }
  }
  return out;
}

/// FNV-1a over the sub-factor files' names and bytes: equal digests mean
/// byte-identical final factors.
std::string FactorDigest(tpcp::Env* env) {
  const std::string prefix = kFactorPrefix;
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const std::string& bytes) {
    for (const unsigned char c : bytes) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  };
  for (const std::string& name :
       env->ListFiles(prefix + "/")) {
    if (ClassifyFile(name) != FileKind::kASubFactor) continue;
    std::string bytes;
    if (!env->ReadFile(name, &bytes).ok()) return "unreadable";
    mix(name.substr(prefix.size()));
    mix(bytes);
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

/// Per-worker max/mean of plan steps and owned bytes (1.0 = balanced).
std::pair<double, double> OwnershipBalance(const tpcp::DistributedPlan& dplan,
                                           const tpcp::UnitCatalog& catalog) {
  const int workers = dplan.num_workers();
  std::vector<double> steps(static_cast<size_t>(workers), 0.0);
  std::vector<double> bytes(static_cast<size_t>(workers), 0.0);
  const tpcp::ExecutionPlan& plan = dplan.plan();
  for (int64_t pos = 0; pos < plan.cycle_length(); ++pos) {
    const tpcp::ModePartition unit = plan.UnitAt(pos);
    const size_t owner = static_cast<size_t>(dplan.OwnerOf(unit));
    steps[owner] += 1.0;
    bytes[owner] += static_cast<double>(catalog.UnitBytes(unit));
  }
  auto max_over_mean = [workers](const std::vector<double>& v) {
    double sum = 0.0, max = 0.0;
    for (const double x : v) {
      sum += x;
      max = std::max(max, x);
    }
    return sum == 0.0 ? 0.0 : max * workers / sum;
  };
  return {max_over_mean(steps), max_over_mean(bytes)};
}

int Decompose(const Workload& w, const Flags& flags) {
  const std::string root = Flag(flags, "root");
  const bool dist = w.dist_workers > 0 && flags.count("local") == 0;
  const std::string trace_out = Flag(flags, "trace-out");
  if (!trace_out.empty()) Tracer::Enable();

  auto opened = tpcp::OpenEnv("posix://" + root);
  if (!opened.ok()) return Fail(opened.status().ToString());
  InstrumentedEnv env(opened->get());
  auto store = tpcp::BlockTensorStore::Open(&env, kTensorPrefix);
  if (!store.ok()) return Fail(store.status().ToString());
  const tpcp::GridPartition grid = store->grid();

  ViClock clock;
  tpcp::TwoPhaseCpOptions options = w.options;
  if (!dist) options.observer = &clock;
  tpcp::BlockFactorStore factors(&env, kFactorPrefix, grid, options.rank);
  tpcp::TwoPhaseCp cp(&*store, &factors, options);

  Status status;
  DistOutcome dist_out;
  tpcp::KruskalTensor decomposition;
  const StorageCounts io_before = env.Counts();
  const int64_t t0 = NowNs();
  {
    std::unique_ptr<tpcp::ThreadPool> pool;
    if (options.num_threads > 1) {
      pool = std::make_unique<tpcp::ThreadPool>(options.num_threads);
    }
    ScopedSpan span("RunPhase1", "core", /*ambient=*/true);
    status = cp.RunPhase1(pool.get());
  }
  const int64_t t1 = NowNs();
  if (status.ok() && dist) {
    dist_out = RunDist(w, root, &factors, options);
    status = dist_out.status;
  } else if (status.ok()) {
    ScopedSpan span("RunPhase2", "core", /*ambient=*/true);
    clock.Start();
    status = cp.RunPhase2();
    clock.Finish();
  }
  const int64_t t2 = NowNs();
  if (status.ok()) {
    ScopedSpan span("AssembleResult", "core");
    std::vector<tpcp::Matrix> full;
    for (int mode = 0; mode < grid.num_modes() && status.ok(); ++mode) {
      auto f = factors.AssembleFullFactor(mode);
      status = f.status();
      if (f.ok()) full.push_back(std::move(*f));
    }
    decomposition = tpcp::KruskalTensor(std::move(full));
    decomposition.Normalize();
  }
  if (status.ok()) {
    // The plain manifest a finished run leaves behind (Session::RunSolver).
    ScopedSpan span("WriteManifest", "core");
    tpcp::StoreManifest manifest;
    manifest.kind = tpcp::StoreManifest::kFactorsKind;
    manifest.grid = grid;
    manifest.rank = options.rank;
    status = tpcp::WriteManifest(&env, kFactorPrefix, manifest);
  }
  const int64_t t3 = NowNs();
  const double rss_mb =
      static_cast<double>(PeakRssKb() + dist_out.max_worker_rss_kb) / 1024.0;
  if (!status.ok()) return Fail(status.ToString());

  StorageCounts io = env.Counts() - io_before;
  io += dist_out.worker_storage;

  JsonValue checks = JsonValue::Object();
  std::string failures;
  auto check = [&](const char* name, bool ok, const std::string& why) {
    checks.Set(name, ok);
    if (!ok) failures += std::string(name) + ": " + why + "; ";
  };
  std::string why;
  check("instrument_matches_iostats",
        env.MatchesIoStats(&why) && dist_out.workers_iostats_match,
        why + dist_out.why);

  // Post-run checks read through a separate, uninstrumented Env so they
  // touch neither the instrument nor the program's IoStats.
  auto plain = tpcp::OpenEnv("posix://" + root);
  if (!plain.ok()) return Fail(plain.status().ToString());
  auto plain_store = tpcp::BlockTensorStore::Open(plain->get(), kTensorPrefix);
  if (!plain_store.ok()) return Fail(plain_store.status().ToString());
  const auto fit = BlockwiseFit(*plain_store, decomposition);
  if (!fit.ok()) return Fail(fit.status().ToString());
  check("fit_floor", *fit >= w.fit_floor,
        "fit " + std::to_string(*fit) + " < " + std::to_string(w.fit_floor));
  const std::string digest = FactorDigest(plain->get());

  // Cost-model views of the executed plan.
  const tpcp::PlannerOptions planner_options =
      tpcp::Phase2PlannerOptions(options, grid);
  const tpcp::ExecutionPlan plan = tpcp::Planner::Build(
      tpcp::UpdateSchedule::Create(options.schedule, grid), planner_options);
  const tpcp::UnitCatalog catalog(grid, options.rank);

  const double phase1_s = Seconds(t1 - t0);
  const double phase2_s = Seconds(t2 - t1);
  const double decompose_s = Seconds(t3 - t0);
  const tpcp::TwoPhaseCpResult& r = cp.result();
  const int vi =
      dist ? dist_out.result.phase2.virtual_iterations : r.virtual_iterations;

  JsonValue layers = JsonValue::Object();
  {
    const StorageCounts::Cell tensor_read =
        io.at(FileKind::kTensor, OpKind::kRead);
    const StorageCounts::Cell factor_read = io.Factor(OpKind::kRead);
    const StorageCounts::Cell factor_write = io.Factor(OpKind::kWrite);
    const StorageCounts::Cell all_reads = io.Total(OpKind::kRead);
    layers.Set("storage.tensor_read_s", Seconds(tensor_read.nanos));
    layers.Set("storage.tensor_read_mb", tensor_read.bytes / kMiB);
    layers.Set("storage.factor_reads", factor_read.ops);
    layers.Set("storage.factor_read_s", Seconds(factor_read.nanos));
    layers.Set("storage.factor_read_mb", factor_read.bytes / kMiB);
    layers.Set("storage.factor_writes", factor_write.ops);
    layers.Set("storage.factor_write_s", Seconds(factor_write.nanos));
    layers.Set("storage.factor_write_mb", factor_write.bytes / kMiB);
    layers.Set("storage.manifest_writes",
               io.at(FileKind::kManifest, OpKind::kWrite).ops);
    layers.Set("storage.read_us_per_file",
               all_reads.ops == 0 ? 0.0
                                  : static_cast<double>(all_reads.nanos) /
                                        1e3 / all_reads.ops);
  }
  const tpcp::BufferStats& b = r.buffer_stats;
  layers.Set("core.phase1_s", phase1_s);
  layers.Set("core.phase1_share", phase1_s / decompose_s);
  layers.Set("core.phase2_s", phase2_s);
  layers.Set("core.phase2_share", phase2_s / decompose_s);
  layers.Set("core.assemble_s", Seconds(t3 - t2));
  layers.Set("core.vi", vi);
  layers.Set("core.vi_ms", dist ? phase2_s * 1e3 / std::max(1, vi)
                                : clock.ViMs());
  // Phase 2 minus load stall and writeback (sync path): the Eq.-3 math,
  // metadata refresh and surrogate fit. Not separable for dist.
  layers.Set("core.phase2_compute_s",
             dist ? 0.0 : phase2_s - b.stall_seconds - b.writeback_seconds);
  layers.Set("buffer.swap_ins", b.swap_ins);
  layers.Set("buffer.swap_outs", b.swap_outs);
  layers.Set("buffer.dirty_writebacks", b.dirty_writebacks);
  layers.Set("buffer.hit_rate", b.HitRate());
  layers.Set("buffer.bytes_in_mb", b.bytes_in / kMiB);
  layers.Set("buffer.stall_s", b.stall_seconds);
  layers.Set("buffer.writeback_s", b.writeback_seconds);
  layers.Set("buffer.prefetch_hits", b.prefetch_hits);
  layers.Set("buffer.prefetch_useful_ratio",
             b.swap_ins == 0 ? 0.0
                             : static_cast<double>(b.prefetch_hits) /
                                   static_cast<double>(b.swap_ins));
  layers.Set("schedule.max_wave_width", plan.max_wave_width());

  if (!dist) {
    // Cold-start replay of exactly the iterations the engine ran.
    const tpcp::SwapSimResult sim = tpcp::SimulateSwapsForSchedule(
        plan.schedule(), options.rank, options.policy,
        planner_options.buffer_bytes, /*warmup_cycles=*/0, vi,
        options.policy_victim_hints);
    layers.Set("schedule.swaps_per_vi_pred", sim.swaps_per_virtual_iteration);
    layers.Set("schedule.swaps_pred_over_meas",
               r.swaps_per_virtual_iteration == 0.0
                   ? 0.0
                   : sim.swaps_per_virtual_iteration /
                         r.swaps_per_virtual_iteration);
    if (w.check_swaps) {
      check("swaps_match_simulator",
            sim.measured_swaps == b.swap_ins &&
                sim.swaps_per_virtual_iteration ==
                    r.swaps_per_virtual_iteration,
            "measured " + std::to_string(b.swap_ins) + " swaps vs simulated " +
                std::to_string(sim.measured_swaps));
    }
  }

  const int workers = dist ? w.dist_workers : 0;
  double dist_phase2_s = 0.0, up = 0, down = 0, persist = 0, messages = 0;
  double pred_over_meas = 0.0, step_balance = 0.0, bytes_balance = 0.0;
  double idle = 0.0;
  bool ledger_exact = false;
  const tpcp::DistributedRunResult& d = dist_out.result;
  if (dist) {
    dist_phase2_s = dist_out.wall_s;
    ledger_exact = d.measured.size() == d.predicted.size() &&
                   d.measured_persist_bytes == d.predicted_persist_bytes;
    for (size_t k = 0; k < d.measured.size(); ++k) {
      up += static_cast<double>(d.measured[k].up_bytes);
      down += static_cast<double>(d.measured[k].down_bytes);
      persist += static_cast<double>(d.measured_persist_bytes[k]);
      messages += static_cast<double>(d.measured[k].up_messages +
                                      d.measured[k].down_messages);
      ledger_exact = ledger_exact &&
                     d.measured[k].up_bytes == d.predicted[k].up_bytes &&
                     d.measured[k].down_bytes == d.predicted[k].down_bytes;
    }
    check("ledger_exact", ledger_exact, "measured != predicted");
    check("no_respawns", d.respawns == 0 && d.degrades == 0,
          std::to_string(d.respawns) + " respawns");
    check("workers_exited_cleanly", dist_out.workers_clean, dist_out.why);

    const tpcp::DistributedPlan dplan(&plan, options.rank, workers);
    tpcp::ClusterSimConfig csim;
    csim.num_workers = workers;
    csim.policy = options.policy;
    csim.buffer_bytes = planner_options.buffer_bytes;
    csim.victim_hints = options.policy_victim_hints;
    csim.overlap = w.dist_overlap;
    const tpcp::ClusterOverlapCost cost =
        tpcp::SimulateClusterOverlap(dplan, options.rank, csim);
    const double pred_s = (w.dist_overlap ? cost.pipelined_seconds_per_vi
                                          : cost.barrier_seconds_per_vi) *
                          vi;
    pred_over_meas = pred_s / dist_phase2_s;
    double swaps_pred = 0.0;
    for (const tpcp::ClusterWorkerCost& c :
         tpcp::SimulateCluster(dplan, options.rank, csim)) {
      swaps_pred += c.swaps_per_vi;
    }
    layers.Set("schedule.swaps_per_vi_pred", swaps_pred);
    layers.Set("schedule.swaps_pred_over_meas", 0.0);  // pools are remote
    std::tie(step_balance, bytes_balance) = OwnershipBalance(dplan, catalog);
    idle = 1.0 - (dist_out.coord_cpu_s + dist_out.worker_cpu_s) /
                     (dist_phase2_s * (1 + workers));
  }
  layers.Set("dist.phase2_s", dist_phase2_s);
  layers.Set("dist.up_mb", up / kMiB);
  layers.Set("dist.down_mb", down / kMiB);
  layers.Set("dist.messages", messages);
  layers.Set("dist.persist_mb", persist / kMiB);
  layers.Set("dist.overlapped_mb", d.overlapped_bytes / kMiB);
  layers.Set("dist.hidden_s", d.hidden_seconds);
  layers.Set("dist.wasted_mb", d.wasted_bytes / kMiB);
  layers.Set("dist.respawns", d.respawns);
  layers.Set("dist.ledger_exact", ledger_exact ? 1 : 0);
  layers.Set("dist.coord_cpu_s", dist_out.coord_cpu_s);
  layers.Set("dist.worker_cpu_s", dist_out.worker_cpu_s);
  layers.Set("dist.idle_frac", idle);
  layers.Set("dist.ms_per_message",
             messages == 0 ? 0.0 : dist_phase2_s * 1e3 / messages);
  layers.Set("dist.pred_s_over_meas", pred_over_meas);
  layers.Set("dist.step_max_over_mean", step_balance);
  layers.Set("dist.bytes_max_over_mean", bytes_balance);

  const StorageCounts::Cell reads = io.Total(OpKind::kRead);
  const StorageCounts::Cell writes = io.Total(OpKind::kWrite);
  JsonValue out = JsonValue::Object();
  out.Set("ok", failures.empty());
  out.Set("error", failures);
  out.Set("checks", std::move(checks));
  out.Set("decompose_s", decompose_s);
  out.Set("fit", *fit);
  out.Set("io_mb", (reads.bytes + writes.bytes) / kMiB);
  out.Set("peak_rss_mb", rss_mb);
  out.Set("digest", digest);
  out.Set("phase2_s", phase2_s);
  out.Set("storage", io.ToJson());
  out.Set("layers", std::move(layers));

  if (!trace_out.empty()) {
    const std::vector<SpanEvent> events = Tracer::Snapshot();
    const std::vector<SpanSummary> rows = SummarizeSelfTime(events);
    std::fprintf(stderr, "per-layer self time (%s, one traced decompose)\n",
                 w.name.c_str());
    std::fprintf(stderr, "  %-9s %-22s %9s %10s %10s\n", "layer", "span",
                 "count", "total_s", "self_s");
    for (const SpanSummary& row : rows) {
      std::fprintf(stderr, "  %-9s %-22s %9" PRId64 " %10.4f %10.4f\n",
                   row.layer.c_str(), row.name.c_str(), row.count,
                   row.total_s, row.self_s);
    }
    JsonValue other = JsonValue::Object();
    other.Set("workload", w.ToJson());
    other.Set("system", SysInfo());
    std::FILE* f = std::fopen(trace_out.c_str(), "wb");
    const std::string text = RenderChromeTrace(events, other.Serialize());
    if (f == nullptr ||
        std::fwrite(text.data(), 1, text.size(), f) != text.size() ||
        std::fclose(f) != 0) {
      return Fail("cannot write trace " + trace_out);
    }
    out.Set("trace_events", static_cast<int64_t>(events.size()));
  }
  PrintJson(out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Flags;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s sysinfo|config|generate|decompose|probe|dist-worker "
                 "[--key=value ...]\n",
                 argv[0]);
    return 2;
  }
  const std::string mode = argv[1];
  Flags flags;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument '%s'\n", arg.c_str());
      return 2;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags[arg] = "";
    } else {
      flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
  if (mode == "sysinfo") {
    perfbench::PrintJson(perfbench::SysInfo());
    return 0;
  }
  if (mode == "dist-worker") return perfbench::DistWorker(flags);

  const perfbench::Workload* workload =
      perfbench::FindWorkload(perfbench::Flag(flags, "workload"));
  if (workload == nullptr) {
    return perfbench::Fail("unknown workload '" +
                           perfbench::Flag(flags, "workload") + "'");
  }
  if (mode == "config") {
    perfbench::PrintJson(workload->ToJson());
    return 0;
  }
  if (mode == "generate") return perfbench::Generate(*workload, flags);
  if (mode == "decompose") return perfbench::Decompose(*workload, flags);
  if (mode == "probe") return perfbench::Probe(*workload, flags);
  std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
  return 2;
}
