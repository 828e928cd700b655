//===- bench/bench_serve.cpp - Serve daemon load generator ----------------===//
//
// Load generator for the `craft serve` subsystem: starts an in-process
// daemon on an ephemeral TCP port, fans CRAFT_SERVE_CLIENTS client
// threads (default 4) out over real loopback connections, and measures
// per-request latency in two phases over CRAFT_SERVE_QUERIES distinct
// queries (default 32, one `input` block each, all against one model):
//
//   cold  every query seen for the first time — full verification cost,
//         amortized model load, admission batching across clients;
//   hot   the identical queries again — served from the ResultCache.
//
// A third phase floods a deliberately starved daemon (one worker, batch
// 1, queue capacity 1) with uncacheable queries from every client at
// once. Under saturation the contract is fail-fast: when the queue is
// full a submission is answered immediately with an
// ok:false "overloaded" envelope instead of queueing without bound, so
// the tail latency (serve_overload_p99) stays bounded and the shed rate
// (serve_shed_rate, direction=higher: a DROP means the daemon went back
// to blocking) stays substantial.
//
// Reports mean/p50/p95/p99 latency and aggregate throughput per phase
// plus the hot-phase cache hit rate, prints a table, and emits
// BENCH_serve.json. Latency percentiles come from the shared telemetry
// histograms (support/Telemetry.h) — the same log-scale readout the
// serve `metrics` envelope reports — and, because the daemon runs
// in-process against the same registry, the server-side admission-queue
// wait is read straight from its serve.queue_wait_ns series and gated
// as serve_queue_wait_p99. Records use the shared BenchJson schema
// (latency records carry
// ns_per_op; throughput records encode ns per request, so lower is
// better everywhere and bench_compare.py gates them uniformly; the
// serve_hot_mean record carries the hit rate). The serve acceptance bar
// — cache hits >= 5x faster than cold on average — is checked at the
// end and reflected in the exit code, which is what lets CI catch a
// cache regression that would silently turn hits into recomputes.
//
// CRAFT_SERVE_JOBS sizes the daemon's verification pool (default 0 =
// all hardware threads).
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"

#include "nn/MonDeq.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "support/Rng.h"
#include "support/Telemetry.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

using namespace craft;
using namespace craft::serve;

namespace {

int envInt(const char *Name, int Default) {
  const char *V = std::getenv(Name);
  return V && *V ? std::atoi(V) : Default;
}

// Per-request latencies go through the shared telemetry histograms (the
// same readout the serve `metrics` envelope reports) instead of a local
// sort-and-index percentile helper. One series per phase; interval
// readout via diffSnapshots keeps phases separable even though the
// registry never resets.
const telemetry::Histogram RequestHist =
    telemetry::histogramMetric("bench.serve.request_ns");

struct PhaseStats {
  double MeanNs = 0.0, P50Ns = 0.0, P95Ns = 0.0, P99Ns = 0.0;
  double ThroughputNsPerReq = 0.0; ///< Wall time / requests (aggregate).
  double HitRate = 0.0;
};

PhaseStats statsFromSnapshot(const telemetry::HistogramSnapshot &S) {
  PhaseStats P;
  P.MeanNs = S.mean();
  P.P50Ns = static_cast<double>(S.p50());
  P.P95Ns = static_cast<double>(S.p95());
  P.P99Ns = static_cast<double>(S.p99());
  return P;
}

/// Runs one phase: every client thread sends its share of the queries
/// over its own connection, timing each round trip.
PhaseStats runPhase(int Port, const std::vector<std::string> &SpecTexts,
                    size_t Clients) {
  std::vector<int> Cached(SpecTexts.size(), 0);
  std::vector<int> Failed(Clients, 0);
  const telemetry::HistogramSnapshot Before = RequestHist.snapshot();
  WallTimer Wall;
  std::vector<std::thread> Threads;
  for (size_t C = 0; C < Clients; ++C) {
    Threads.emplace_back([&, C] {
      ServeClient Client;
      std::string Error;
      if (!Client.connect(Port, Error)) {
        Failed[C] = 1;
        return;
      }
      for (size_t I = C; I < SpecTexts.size(); I += Clients) {
        WallTimer T;
        std::optional<VerifyReply> Reply =
            Client.verify(SpecTexts[I], Error);
        RequestHist.observe(static_cast<uint64_t>(T.seconds() * 1e9));
        if (!Reply || Reply->Results.empty()) {
          Failed[C] = 1;
          return;
        }
        Cached[I] = Reply->Results[0].Cached ? 1 : 0;
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  const double WallSec = Wall.seconds();
  for (size_t C = 0; C < Clients; ++C)
    if (Failed[C]) {
      std::fprintf(stderr, "error: client %zu failed its phase\n", C);
      std::exit(2);
    }

  PhaseStats S = statsFromSnapshot(
      telemetry::diffSnapshots(Before, RequestHist.snapshot()));
  size_t Hits = 0;
  for (int Flag : Cached)
    Hits += static_cast<size_t>(Flag);
  S.ThroughputNsPerReq = WallSec * 1e9 / SpecTexts.size();
  S.HitRate = static_cast<double>(Hits) / SpecTexts.size();
  return S;
}

struct OverloadStats {
  double P99Ns = 0.0;   ///< Over every request, shed answers included.
  double ShedRate = 0.0; ///< Fraction answered with "overloaded".
};

/// Floods a starved daemon (worker pool of 1, batch 1, queue capacity 1)
/// with \p Clients * \p PerClient uncacheable copies of \p SpecText.
/// Shed answers are expected and timed like any other response; any
/// other failure aborts the bench.
OverloadStats runOverloadPhase(const std::string &SpecText, size_t Clients,
                               size_t PerClient) {
  ServerOptions Opts;
  Opts.Port = 0;
  Opts.Sched.Jobs = 1;
  Opts.Sched.MaxBatch = 1;
  Opts.Sched.QueueCapacity = 1;
  Server Daemon(Opts);
  std::string Error;
  if (!Daemon.start(Error)) {
    std::fprintf(stderr, "error: cannot start overload daemon: %s\n",
                 Error.c_str());
    std::exit(2);
  }
  const size_t Total = Clients * PerClient;
  std::vector<int> Shed(Total, 0);
  std::vector<int> Failed(Clients, 0);
  const telemetry::HistogramSnapshot Before = RequestHist.snapshot();
  std::vector<std::thread> Threads;
  for (size_t C = 0; C < Clients; ++C) {
    Threads.emplace_back([&, C] {
      ServeClient Client;
      std::string Err;
      if (!Client.connect(Daemon.boundPort(), Err)) {
        Failed[C] = 1;
        return;
      }
      for (size_t I = 0; I < PerClient; ++I) {
        const size_t Slot = C * PerClient + I;
        WallTimer T;
        std::optional<VerifyReply> Reply =
            Client.verify(SpecText, Err, /*UseCache=*/false);
        RequestHist.observe(static_cast<uint64_t>(T.seconds() * 1e9));
        if (Reply)
          continue;
        if (Client.lastErrorCode() == "overloaded") {
          Shed[Slot] = 1;
          continue;
        }
        Failed[C] = 1;
        return;
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  for (size_t C = 0; C < Clients; ++C)
    if (Failed[C]) {
      std::fprintf(stderr,
                   "error: client %zu failed the overload phase\n", C);
      std::exit(2);
    }
  Daemon.shutdown();

  OverloadStats S;
  size_t ShedCount = 0;
  for (int Flag : Shed)
    ShedCount += static_cast<size_t>(Flag);
  S.ShedRate = static_cast<double>(ShedCount) / Total;
  S.P99Ns = static_cast<double>(
      telemetry::diffSnapshots(Before, RequestHist.snapshot()).p99());
  return S;
}

} // namespace

int main() {
  const size_t Clients =
      static_cast<size_t>(std::max(1, envInt("CRAFT_SERVE_CLIENTS", 4)));
  const size_t Queries =
      static_cast<size_t>(std::max(1, envInt("CRAFT_SERVE_QUERIES", 32)));
  const int Jobs = envInt("CRAFT_SERVE_JOBS", 0);

  // One synthetic model for every query: the registry pins it after the
  // first load, so the cold phase already amortizes model IO. Untrained
  // weights are fine — the phase contrast measures verification cost vs
  // cache lookup, not certification rates.
  Rng ModelRng(20230617);
  MonDeq Model = MonDeq::randomFc(ModelRng, 10, 30, 4, 3.0);
  const std::string ModelPath = "serve_bench_model.bin";
  if (!Model.save(ModelPath)) {
    std::fprintf(stderr, "error: cannot write %s\n", ModelPath.c_str());
    return 2;
  }

  // Distinct queries: deterministic centers, one input block per spec
  // text so each request measures one query's round trip.
  Rng CenterRng(7);
  std::vector<std::string> SpecTexts;
  SpecTexts.reserve(Queries);
  for (size_t Q = 0; Q < Queries; ++Q) {
    // += pieces, not a `+` chain: GCC 12 -Wrestrict misfires on string
    // operator+ chains (same workaround as the spec parser and fig2).
    std::string S = "model ";
    S += ModelPath;
    S += "\noutput robust 0\nverifier craft\nalpha1 0.5\n"
         "epsilon 0.01\ninput linf\n  center";
    char Buf[32];
    for (size_t I = 0; I < Model.inputDim(); ++I) {
      std::snprintf(Buf, sizeof(Buf), " %.17g",
                    0.25 + 0.5 * CenterRng.uniform());
      S += Buf;
    }
    S += "\n";
    SpecTexts.push_back(std::move(S));
  }

  ServerOptions Opts;
  Opts.Port = 0;
  Opts.Sched.Jobs = Jobs == 0 ? -1 : Jobs;
  Opts.Sched.MaxBatch = 64;
  Server Daemon(Opts);
  std::string Error;
  if (!Daemon.start(Error)) {
    std::fprintf(stderr, "error: cannot start daemon: %s\n",
                 Error.c_str());
    return 2;
  }
  std::printf("bench_serve: %zu clients x %zu queries, jobs=%d, "
              "port=%d\n",
              Clients, Queries, Jobs, Daemon.boundPort());

  PhaseStats Cold = runPhase(Daemon.boundPort(), SpecTexts, Clients);
  if (Cold.HitRate != 0.0) {
    std::fprintf(stderr, "error: cold phase saw cache hits (%.2f)\n",
                 Cold.HitRate);
    return 2;
  }
  PhaseStats Hot = runPhase(Daemon.boundPort(), SpecTexts, Clients);

  // The daemon runs in-process, so its scheduler feeds the same registry:
  // read the server-side admission-queue wait straight from the series
  // the `metrics` envelope reports. Snapshot before the overload phase —
  // the starved daemon's (deliberately awful) waits are its own record.
  const double QueueWaitP99Ns = static_cast<double>(
      telemetry::histogramMetric("serve.queue_wait_ns").snapshot().p99());

  Daemon.shutdown();

  OverloadStats Over = runOverloadPhase(SpecTexts[0], Clients, 8);
  std::remove(ModelPath.c_str());

  auto Ms = [](double Ns) { return Ns / 1e6; };
  std::printf("\n%-10s %10s %10s %10s %10s %12s %8s\n", "phase", "mean",
              "p50", "p95", "p99", "req/s", "hits");
  for (const auto &[Name, S] :
       {std::pair<const char *, const PhaseStats &>{"cold", Cold},
        {"hot", Hot}})
    std::printf("%-10s %8.3fms %8.3fms %8.3fms %8.3fms %12.0f %7.0f%%\n",
                Name, Ms(S.MeanNs), Ms(S.P50Ns), Ms(S.P95Ns),
                Ms(S.P99Ns), 1e9 / S.ThroughputNsPerReq,
                100.0 * S.HitRate);
  std::printf("overload   p99 %8.3fms, shed rate %3.0f%% (starved "
              "daemon, %zu clients x 8)\n",
              Ms(Over.P99Ns), 100.0 * Over.ShedRate, Clients);

  std::string Dims = "c";
  Dims += std::to_string(Clients);
  Dims += 'q';
  Dims += std::to_string(Queries);
  std::vector<benchjson::Record> Records;
  auto addRecord = [&](const char *Op, double Ns, double HitRate = -1.0) {
    benchjson::Record R;
    R.Op = Op;
    R.Dims = Dims;
    R.NsPerOp = Ns;
    R.CacheHitRate = HitRate;
    Records.push_back(std::move(R));
  };
  addRecord("serve_cold_mean", Cold.MeanNs);
  addRecord("serve_cold_p95", Cold.P95Ns);
  addRecord("serve_cold_throughput", Cold.ThroughputNsPerReq);
  addRecord("serve_hot_mean", Hot.MeanNs, Hot.HitRate);
  addRecord("serve_hot_p95", Hot.P95Ns);
  addRecord("serve_hot_p99", Hot.P99Ns);
  addRecord("serve_hot_throughput", Hot.ThroughputNsPerReq);
  addRecord("serve_queue_wait_p99", QueueWaitP99Ns);
  addRecord("serve_overload_p99", Over.P99Ns);
  {
    // Shed rate rides in ns_per_op like the hit rate does; direction
    // "higher" flips the gate so a daemon that quietly stops shedding
    // (and starts blocking) regresses the record.
    benchjson::Record R;
    R.Op = "serve_shed_rate";
    R.Dims = Dims;
    R.NsPerOp = Over.ShedRate;
    R.Direction = "higher";
    Records.push_back(std::move(R));
  }
  benchjson::write("BENCH_serve.json", Records);

  const double Speedup = Cold.MeanNs / Hot.MeanNs;
  std::printf("\ncache speedup: %.1fx (mean cold / mean hot)\n", Speedup);
  if (Hot.HitRate < 1.0) {
    std::fprintf(stderr,
                 "FAIL: hot phase hit rate %.2f < 1.0 — identical "
                 "queries must be served from the cache\n",
                 Hot.HitRate);
    return 1;
  }
  if (Speedup < 5.0) {
    std::fprintf(stderr,
                 "FAIL: cache-hit mean latency is only %.1fx lower than "
                 "cold (acceptance bar: >= 5x)\n",
                 Speedup);
    return 1;
  }
  if (Over.ShedRate <= 0.0) {
    std::fprintf(stderr,
                 "FAIL: the saturated daemon never shed — overload must "
                 "be answered with 'overloaded', not absorbed by "
                 "blocking\n");
    return 1;
  }
  std::printf("OK: >= 5x cache-hit acceptance bar met, overload shed "
              "rate %.0f%%\n",
              100.0 * Over.ShedRate);
  return 0;
}
