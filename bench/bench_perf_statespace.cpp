// Performance harness for the state-space engine hot path and the
// throughput-check memoization cache (docs/PERF.md).
//
// Sections:
//   1. StateKey hashing: the pre-optimization per-byte FNV-1a loop (copied
//      here verbatim as the baseline) vs the current word-wise splitmix64
//      mixer, in ns/key over representative key sizes.
//   2. Engine throughput: repeated self-timed and schedule/TDMA-constrained
//      analyses of the media applications, in stored states per second.
//   3. Table-4-style allocation sweep at --jobs 1/2/8 with the cache off and
//      on: asserts that the deterministic report is byte-identical across all
//      configurations and that the cache-on runs actually hit.
//   4. Warm start: the sweep runs twice against a persistent cache store
//      (docs/CACHE.md), asserting the run-2 hit rate strictly exceeds run-1
//      (run 2 warm-starts from run 1's records) with byte-identical reports.
//
// stdout carries only deterministic verdicts (PASS/FAIL lines); every timing
// and cache statistic goes to stderr and into the machine-readable JSON file
// written to --out (default BENCH_statespace.json).
//
// Usage:
//   bench_perf_statespace [--quick] [--out=<file>] [--cache | --no-cache]
//                         [--cache-dir=<dir>]
//
// --quick shrinks every section for CI smoke runs. --no-cache only drops the
// cache-on half of the sweep (section 3 then checks determinism across the
// three cache-off configurations) and the warm-start section. --cache-dir
// (or SDFMAP_CACHE_DIR) backs section 3's cache-on runs with a persistent
// store, so a repeated invocation warm-starts across processes; the
// warm-start section uses a dedicated subdirectory it clears first, keeping
// its cold-then-warm verdict deterministic. Exit code: 0 success, 1
// assertion failed.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/analysis/cache.h"
#include "src/analysis/constrained.h"
#include "src/analysis/persistent_cache.h"
#include "src/support/file_io.h"
#include "src/analysis/state_hash.h"
#include "src/analysis/state_space.h"
#include "src/appmodel/media.h"
#include "src/appmodel/paper_example.h"
#include "src/gen/benchmark_sets.h"
#include "src/mapping/list_scheduler.h"
#include "src/mapping/multi_app.h"
#include "src/platform/mesh.h"
#include "src/runtime/parallel.h"
#include "src/runtime/task_pool.h"
#include "src/sdf/repetition_vector.h"
#include "src/support/cli.h"
#include "src/support/env.h"

using namespace sdfmap;

namespace {

// ---------------------------------------------------------------------------
// Section 1: hashing micro-benchmark.

/// The seed's StateKeyHash, kept verbatim as the comparison baseline: FNV-1a
/// over every byte of every word (8 xor/multiply rounds per word).
struct LegacyFnv1aHash {
  std::size_t operator()(const StateKey& key) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::int64_t w : key.words) {
      std::uint64_t x = static_cast<std::uint64_t>(w);
      for (int i = 0; i < 8; ++i) {
        h ^= (x >> (i * 8)) & 0xffU;
        h *= 0x100000001b3ULL;
      }
    }
    return static_cast<std::size_t>(h);
  }
};

/// Deterministic pseudo-random key corpus shaped like real engine keys
/// (tokens + remaining-time words, mostly small non-negative values).
std::vector<StateKey> make_key_corpus(std::size_t count, std::size_t words_per_key) {
  std::vector<StateKey> keys(count);
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  for (StateKey& key : keys) {
    key.words.reserve(words_per_key);
    for (std::size_t w = 0; w < words_per_key; ++w) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      key.words.push_back(static_cast<std::int64_t>(x % 64));
    }
  }
  return keys;
}

struct HashBenchResult {
  double legacy_ns_per_key = 0;
  double current_ns_per_key = 0;
  std::size_t keys = 0;
  std::size_t words_per_key = 0;
  std::uint64_t checksum = 0;  // defeats dead-code elimination
};

template <typename Hash>
double time_hash(const std::vector<StateKey>& keys, int rounds, std::uint64_t& sink) {
  const benchutil::Timer timer;
  for (int r = 0; r < rounds; ++r) {
    for (const StateKey& key : keys) sink += Hash{}(key);
  }
  return timer.seconds() / static_cast<double>(rounds) /
         static_cast<double>(keys.size()) * 1e9;
}

HashBenchResult run_hash_bench(bool quick) {
  HashBenchResult r;
  r.keys = quick ? 2'000 : 20'000;
  r.words_per_key = 24;  // ~ tokens + active firings of a mid-size graph
  const int rounds = quick ? 20 : 100;
  const auto corpus = make_key_corpus(r.keys, r.words_per_key);
  r.legacy_ns_per_key = time_hash<LegacyFnv1aHash>(corpus, rounds, r.checksum);
  r.current_ns_per_key = time_hash<StateKeyHash>(corpus, rounds, r.checksum);
  // Printing the checksum keeps the hash loops observable (no dead-code
  // elimination of the timed region).
  std::cerr << "[hash] " << r.keys << " keys x " << r.words_per_key
            << " words: legacy FNV-1a " << r.legacy_ns_per_key << " ns/key, splitmix64 "
            << r.current_ns_per_key << " ns/key (checksum " << (r.checksum & 0xffff)
            << ")\n";
  return r;
}

// ---------------------------------------------------------------------------
// Section 2: engine states/s micro-benchmark.

/// K chained two-actor cycles with pairwise-coprime periods: cycle i fires
/// with period p_i, and the chain channels (rates p_src : p_dst, token-rate
/// balanced, enough initial tokens to never gate) only couple the phases.
/// The sampled state therefore recurs after lcm(p_0..p_{k-1}) time units,
/// and the reference actor (smallest repetition count = the slowest cycle)
/// samples lcm / max(p_i) distinct states — ~1000 stored states for periods
/// {7, 11, 13, 17}, a real hot-path workload for the recurrence detector.
Graph make_interference_graph() {
  static const std::int64_t exec[][2] = {{3, 4}, {5, 6}, {6, 7}, {8, 9}};  // periods 7,11,13,17
  constexpr int num_cycles = 4;
  Graph g;
  std::vector<ActorId> heads;
  for (int i = 0; i < num_cycles; ++i) {
    const std::int64_t* e = exec[i];
    const ActorId a = g.add_actor("a" + std::to_string(i), e[0]);
    const ActorId b = g.add_actor("b" + std::to_string(i), e[1]);
    g.add_channel(a, b, 1, 1, 0, "fwd" + std::to_string(i));
    g.add_channel(b, a, 1, 1, 1, "bck" + std::to_string(i));
    heads.push_back(a);
  }
  for (int i = 0; i + 1 < num_cycles; ++i) {
    const std::int64_t p_src = exec[i][0] + exec[i][1];
    const std::int64_t p_dst = exec[i + 1][0] + exec[i + 1][1];
    g.add_channel(heads[static_cast<std::size_t>(i)],
                  heads[static_cast<std::size_t>(i) + 1], p_src, p_dst,
                  8 * (p_src + p_dst), "chain" + std::to_string(i));
  }
  return g;
}

struct EngineBenchResult {
  double self_timed_states_per_s = 0;
  double constrained_states_per_s = 0;
  std::uint64_t states_per_pass = 0;  // deterministic workload size
};

EngineBenchResult run_engine_bench(bool quick) {
  EngineBenchResult r;
  const int passes = quick ? 3 : 25;

  const Graph stress = make_interference_graph();
  const RepetitionVector stress_gamma = *compute_repetition_vector(stress);

  std::uint64_t states = 0;
  benchutil::Timer timer;
  for (int p = 0; p < passes; ++p) {
    states += self_timed_throughput(stress, stress_gamma).states_stored;
  }
  const double self_timed_seconds = timer.seconds();
  r.self_timed_states_per_s = static_cast<double>(states) / self_timed_seconds;
  r.states_per_pass = states / static_cast<std::uint64_t>(passes);

  // Constrained: the running example under schedules + 50% TDMA slices.
  const Architecture arch = make_example_platform();
  const ApplicationGraph app = make_paper_example_application();
  const Binding binding = make_paper_example_binding(arch);
  const ListSchedulingResult sched = construct_schedules(app, arch, binding);
  const auto gamma = *compute_repetition_vector(sched.binding_aware.graph);
  const ConstrainedSpec spec =
      make_constrained_spec(arch, sched.binding_aware, sched.schedules);
  std::uint64_t cstates = 0;
  timer.reset();
  for (int p = 0; p < passes * 20; ++p) {
    cstates += execute_constrained(sched.binding_aware.graph, gamma, spec,
                                   SchedulingMode::kStaticOrder)
                   .base.states_stored;
  }
  r.constrained_states_per_s = static_cast<double>(cstates) / timer.seconds();

  std::cerr << "[engine] self-timed " << static_cast<long>(r.self_timed_states_per_s)
            << " states/s (" << r.states_per_pass << " states/pass), constrained "
            << static_cast<long>(r.constrained_states_per_s) << " states/s\n";
  return r;
}

// ---------------------------------------------------------------------------
// Section 3: Table-4-style sweep, cache off/on x jobs 1/2/8.

struct SweepConfig {
  unsigned jobs;
  bool cache;
};

struct SweepOutcome {
  SweepConfig config;
  double seconds = 0;
  std::string report;  // deterministic summary, must match across configs
  CacheStats stats;    // lifetime totals of this config's cache
};

/// One reduced Table-4 workload: every (cost function, sequence) pair is
/// allocated on the pool and reduced to a deterministic report in serial
/// order. The cache, when given, is shared by the whole sweep. The weight
/// grid contains scaled duplicates — (2,0,0) ranks tiles exactly like
/// (1,0,0), (0,2,4) like (0,1,2) — the redundancy real weight explorations
/// carry, which is precisely what the shared cache collapses.
SweepOutcome run_sweep_once(const std::vector<std::vector<ApplicationGraph>>& sequences,
                            const Architecture& arch, SweepConfig config,
                            const std::string& cache_dir = "") {
  static const TileCostWeights kCostFunctions[] = {
      {1, 0, 0}, {2, 0, 0}, {0, 1, 2}, {0, 2, 4}, {1, 1, 1}};
  SweepOutcome out;
  out.config = config;
  TaskPool::set_global_jobs(config.jobs);
  // Non-empty cache_dir backs the cache with a persistent store (opened
  // here, flushed and released when `cache` goes out of scope).
  const auto cache = config.cache ? make_persistent_throughput_cache(cache_dir) : nullptr;

  struct Run {
    int fn;
    std::size_t seq;
  };
  std::vector<Run> runs;
  for (int fn = 0; fn < 5; ++fn) {
    for (std::size_t seq = 0; seq < sequences.size(); ++seq) {
      runs.push_back(Run{fn, seq});
    }
  }

  const benchutil::Timer timer;
  const std::vector<MultiAppResult> results = parallel_transform(
      runs,
      [&](const Run& run, std::size_t) {
        StrategyOptions options;
        options.weights = kCostFunctions[run.fn];
        options.cache = cache;
        return allocate_sequence(sequences[run.seq], arch, options);
      },
      ParallelOptions{});
  out.seconds = timer.seconds();

  std::ostringstream report;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const MultiAppResult& r = results[i];
    report << "fn" << runs[i].fn << " seq" << runs[i].seq << ": " << r.num_allocated
           << " allocated, " << r.total_throughput_checks << " checks";
    for (const StrategyResult& s : r.results) {
      report << " " << (s.success ? s.achieved_throughput.to_string() : "-");
    }
    report << "\n";
  }
  out.report = report.str();
  if (cache) out.stats = cache->stats();
  std::cerr << "[sweep] jobs " << config.jobs << ", cache " << (config.cache ? "on " : "off") << ": " << out.seconds << " s"
            << (config.cache ? ", " + out.stats.summary() : "") << "\n";
  return out;
}

std::vector<std::vector<ApplicationGraph>> make_sweep_sequences(bool quick) {
  const std::size_t length = quick ? 6 : 16;
  const int num_sequences = quick ? 1 : 2;
  std::vector<std::vector<ApplicationGraph>> sequences;
  for (int seq = 0; seq < num_sequences; ++seq) {
    sequences.push_back(generate_sequence(BenchmarkSet::kMixed, length,
                                          1 + static_cast<std::uint64_t>(seq)));
  }
  return sequences;
}

std::vector<SweepOutcome> run_sweep(bool quick, bool with_cache,
                                    const std::string& cache_dir) {
  const auto sequences = make_sweep_sequences(quick);
  const Architecture arch = make_benchmark_architecture(0);

  std::vector<SweepOutcome> outcomes;
  for (const unsigned jobs : {1u, 2u, 8u}) {
    outcomes.push_back(run_sweep_once(sequences, arch, SweepConfig{jobs, false}));
    if (with_cache) {
      outcomes.push_back(run_sweep_once(sequences, arch, SweepConfig{jobs, true}, cache_dir));
    }
  }
  return outcomes;
}

// ---------------------------------------------------------------------------
// Section 4: warm start across persistent-store generations.

struct WarmStartResult {
  SweepOutcome cold;  // run 1: fresh store
  SweepOutcome warm;  // run 2: same store, warm-started from run 1's records
  bool identical = false;
  bool improved = false;  // warm hit rate strictly exceeds the cold one
};

/// Clears any previous store at `dir` so the cold-then-warm verdict is
/// deterministic no matter how often the harness ran before.
void clear_store(const std::string& dir) {
  FileIo io;
  try {
    for (const std::string& name : io.list_files(dir)) io.remove_file(dir + "/" + name);
  } catch (const IoError&) {
    // Missing directory: nothing to clear.
  }
}

WarmStartResult run_warm_start(bool quick, const std::string& dir) {
  const auto sequences = make_sweep_sequences(quick);
  const Architecture arch = make_benchmark_architecture(0);
  clear_store(dir);
  WarmStartResult r;
  r.cold = run_sweep_once(sequences, arch, SweepConfig{2u, true}, dir);
  r.warm = run_sweep_once(sequences, arch, SweepConfig{2u, true}, dir);
  r.identical = r.cold.report == r.warm.report;
  r.improved = r.warm.stats.hit_rate() > r.cold.stats.hit_rate();
  std::cerr << "[warm] run 1 (cold): " << r.cold.stats.summary() << "\n";
  std::cerr << "[warm] run 2 (warm): " << r.warm.stats.summary() << "\n";
  return r;
}

// ---------------------------------------------------------------------------

void write_json(const std::string& path, bool quick, const HashBenchResult& hash,
                const EngineBenchResult& engine,
                const std::vector<SweepOutcome>& sweep, bool determinism_ok,
                bool cache_hit_ok, const WarmStartResult* warm) {
  std::ofstream os(path);
  os << "{\n";
  os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  os << "  \"hash\": {\"keys\": " << hash.keys << ", \"words_per_key\": "
     << hash.words_per_key << ", \"legacy_fnv1a_ns_per_key\": " << hash.legacy_ns_per_key
     << ", \"splitmix64_ns_per_key\": " << hash.current_ns_per_key << ", \"speedup\": "
     << (hash.current_ns_per_key > 0 ? hash.legacy_ns_per_key / hash.current_ns_per_key
                                     : 0)
     << "},\n";
  os << "  \"engine\": {\"self_timed_states_per_s\": " << engine.self_timed_states_per_s
     << ", \"constrained_states_per_s\": " << engine.constrained_states_per_s
     << ", \"states_per_pass\": " << engine.states_per_pass << "},\n";
  os << "  \"sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepOutcome& o = sweep[i];
    os << "    {\"jobs\": " << o.config.jobs << ", \"cache\": "
       << (o.config.cache ? "true" : "false") << ", \"seconds\": " << o.seconds
       << ", \"hits\": " << o.stats.hits << ", \"misses\": " << o.stats.misses
       << ", \"inserts\": " << o.stats.inserts << ", \"evictions\": " << o.stats.evictions
       << "}" << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  if (warm) {
    os << "  \"warm_start\": {\"cold_hits\": " << warm->cold.stats.hits
       << ", \"cold_lookups\": " << warm->cold.stats.lookups()
       << ", \"warm_hits\": " << warm->warm.stats.hits
       << ", \"warm_lookups\": " << warm->warm.stats.lookups()
       << ", \"warm_disk_hits\": " << warm->warm.stats.disk_hits
       << ", \"identical\": " << (warm->identical ? "true" : "false")
       << ", \"improved\": " << (warm->improved ? "true" : "false") << "},\n";
  }
  os << "  \"determinism_ok\": " << (determinism_ok ? "true" : "false") << ",\n";
  os << "  \"cache_hit_ok\": " << (cache_hit_ok ? "true" : "false") << "\n";
  os << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const bool quick = args.has("quick");
  const bool with_cache = read_knob(Knob::kCache, &args).integer != 0;
  const std::string out_path = args.get("out", "BENCH_statespace.json");
  const std::string cache_dir = read_knob(Knob::kCacheDir, &args).text;

  benchutil::heading("state-space performance harness" + std::string(quick ? " (quick)" : ""));

  const HashBenchResult hash = run_hash_bench(quick);
  const EngineBenchResult engine = run_engine_bench(quick);
  const std::vector<SweepOutcome> sweep = run_sweep(quick, with_cache, cache_dir);
  // The warm-start store lives in its own cleared-first location so the
  // cold-then-warm comparison stays deterministic even under a shared
  // --cache-dir (which section 3 uses as-is for cross-process warm starts).
  std::optional<WarmStartResult> warm;
  if (with_cache) {
    const std::string warm_dir =
        (cache_dir.empty() ? out_path + ".cache" : cache_dir) + "/warm-start";
    warm = run_warm_start(quick, warm_dir);
  }

  // Deterministic verdicts only on stdout: the workload reports must be
  // byte-identical across every (jobs, cache) configuration, and every
  // cache-on configuration must actually hit.
  bool determinism_ok = true;
  for (const SweepOutcome& o : sweep) {
    if (o.report != sweep.front().report) determinism_ok = false;
  }
  bool cache_hit_ok = true;
  for (const SweepOutcome& o : sweep) {
    if (o.config.cache && o.stats.hits == 0) cache_hit_ok = false;
  }
  std::cout << "determinism across " << sweep.size() << " (jobs, cache) configurations: "
            << (determinism_ok ? "PASS" : "FAIL") << "\n";
  if (with_cache) {
    std::cout << "cache hits in every cache-on configuration: "
              << (cache_hit_ok ? "PASS" : "FAIL") << "\n";
  }
  bool warm_ok = true;
  if (warm) {
    warm_ok = warm->identical && warm->improved;
    std::cout << "warm start: run-2 hit rate strictly exceeds run-1, identical report: "
              << (warm_ok ? "PASS" : "FAIL") << "\n";
  }

  write_json(out_path, quick, hash, engine, sweep, determinism_ok, cache_hit_ok,
             warm ? &*warm : nullptr);
  std::cerr << "[out] wrote " << out_path << "\n";
  return determinism_ok && cache_hit_ok && warm_ok ? 0 : 1;
}
