//===- perfbench/src/ServeMixed.cpp - Daemon over loopback sockets --------===//
//
// A spawned `craft serve --port 0 --jobs 4` daemon answering four
// closed-loop client connections: each client sends its next request only
// after the reply to the previous one arrived. The model is the small GMM
// monDEQ (5-dim input, latent 10, 3 classes). Three requests in five repeat
// one of a few popular queries (Zipf-skewed); the rest are fresh queries
// from a fixed mix: direct `verifier craft` at easy:hard radii
// 2:1, the same queries under `cascade full`, `verifier lipschitz`,
// `verifier crown`, and one craft query in nine requesting a
// certificate. Every request sequence is a function of the seed and the
// client index alone.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Inputs.h"

#include "cert/Certificate.h"
#include "cert/Checker.h"
#include "nn/MonDeq.h"
#include "serve/Client.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <spawn.h>
#include <sstream>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char **environ;

using namespace perfbench;
using namespace craft;

namespace {

constexpr int Clients = 4;
constexpr int DaemonJobs = 4;
/// Popular queries the repeats draw from.
constexpr size_t HotSetSize = 16;
/// Requests per client generated up front (a run never gets near it).
constexpr size_t RequestsPerClient = 20000;
/// Share of requests that repeat a popular query. Cache hits answer in
/// about 0.1 ms and everything else waits milliseconds for a batch, so at
/// one half the median would sit in the gap between the two and jump
/// between them from run to run. At three in five it sits among the hits,
/// whose spread is narrow; at two in five it sat on the steep low end of
/// the misses and moved twice as much as qps between runs.
constexpr double RepeatShare = 0.6;
/// Fresh queries per client the precision figures are taken over.
constexpr size_t PrecisionPrefix = 150;
constexpr double EasyRadius = 0.02, HardRadius = 0.3;

/// What a request asks for (the fresh-query mix).
enum class Kind { Craft, Cascade, Lipschitz, Crown };

struct Request {
  std::string Spec;
  Kind K = Kind::Craft;
  bool Fresh = false;   ///< First and only time this query is sent.
  std::string CertPath; ///< Non-empty: the query requests a certificate.
};

/// One fresh query around a jittered sample.
Request freshQuery(const std::vector<Sample> &Samples, Rng &R,
                   const std::string &Model, size_t Slot,
                   const std::string &CertPath) {
  // Twelve-slot cycle: six direct craft (easy, easy, hard, ...), three
  // cascade (easy, easy, hard), lipschitz, and two crown.
  static const Kind Kinds[12] = {Kind::Craft,   Kind::Craft,   Kind::Craft,
                                 Kind::Craft,   Kind::Craft,   Kind::Craft,
                                 Kind::Cascade, Kind::Cascade, Kind::Cascade,
                                 Kind::Lipschitz, Kind::Crown, Kind::Crown};
  static const bool Hard[12] = {false, false, true,  false, false, true,
                                false, false, true,  false, false, true};
  Request Q;
  Q.K = Kinds[Slot % 12];
  const Sample &S = Samples[size_t(R.uniformInt(0, int(Samples.size()) - 1))];
  std::ostringstream T;
  T << "model " << Model << "\ninput linf\n  center";
  for (size_t I = 0; I < S.Center.size(); ++I)
    T << " " << exact(std::clamp(S.Center[I] + R.uniform(-0.02, 0.02), 0.0,
                                 1.0));
  T << "\n  epsilon " << exact(Hard[Slot % 12] ? HardRadius : EasyRadius)
    << "\n  clamp 0 1\noutput robust " << S.Label << "\n";
  switch (Q.K) {
  case Kind::Craft:
  case Kind::Cascade:
    T << "verifier craft\nalpha1 0.5\nattack on\n";
    if (Q.K == Kind::Cascade)
      T << "cascade full\n";
    if (!CertPath.empty()) {
      T << "certificate " << CertPath << "\n";
      Q.CertPath = CertPath;
    }
    break;
  case Kind::Lipschitz:
    T << "verifier lipschitz\n";
    break;
  case Kind::Crown:
    T << "verifier crown\n";
    break;
  }
  Q.Spec = T.str();
  return Q;
}

/// The seed's request sequences: shared popular queries plus per-client
/// streams.
std::vector<std::vector<Request>>
makeSequences(uint64_t Seed, const std::vector<Sample> &Samples,
              const std::string &Model, const std::string &CertDir) {
  Rng HotRng(taskSeed(Seed, 99));
  std::vector<Request> Hot;
  for (size_t I = 0; I < HotSetSize; ++I)
    Hot.push_back(freshQuery(Samples, HotRng, Model, I, ""));
  // Zipf(1) popularity over the hot set's ranks.
  std::vector<double> Cdf;
  double Total = 0.0;
  for (size_t I = 0; I < HotSetSize; ++I)
    Cdf.push_back(Total += 1.0 / double(I + 1));

  std::vector<std::vector<Request>> Seqs(Clients);
  for (int C = 0; C < Clients; ++C) {
    Rng R(taskSeed(Seed, 100 + uint64_t(C)));
    size_t Fresh = 0;
    Seqs[C].reserve(RequestsPerClient);
    for (size_t N = 0; N < RequestsPerClient; ++N) {
      if (R.uniform() < RepeatShare) {
        const double U = R.uniform(0.0, Total);
        const size_t Rank =
            size_t(std::lower_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin());
        Seqs[C].push_back(Hot[std::min(Rank, HotSetSize - 1)]);
        continue;
      }
      // Slot 0 of every cycle (one craft query in nine) asks for a
      // certificate.
      std::string Cert;
      if (Fresh % 12 == 0)
        Cert = CertDir + "/c" + std::to_string(C) + "-" +
               std::to_string(Fresh) + ".cert";
      Seqs[C].push_back(freshQuery(Samples, R, Model, Fresh, Cert));
      Seqs[C].back().Fresh = true;
      ++Fresh;
    }
  }
  return Seqs;
}

/// A client connection to \p Port with a 60 s receive timeout and no
/// retries (a retried request would hide a failure the run must count).
std::optional<serve::ServeClient> connectTo(int Port) {
  serve::ServeClient C;
  std::string Err;
  serve::RetryPolicy Policy;
  Policy.TimeoutMs = 60000;
  C.setRetryPolicy(Policy);
  if (!C.connect(Port, Err))
    return std::nullopt;
  return C;
}

/// A spawned `craft serve` process.
class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() { stop(); }

  /// Spawns the daemon and waits until it answers an `info` request with
  /// the model resident. Returns the seconds that took, or < 0.
  double start(const Options &Opts, const std::string &Model,
               const std::string &TraceOut) {
    std::vector<std::string> Args = {Opts.CraftCli, "serve", "--port", "0",
                                     "--jobs", std::to_string(DaemonJobs)};
    if (!TraceOut.empty()) {
      Args.push_back("--trace-out");
      Args.push_back(TraceOut);
    }
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    // The daemon announces its port on stdout, a close-on-exec pipe here.
    int Pipe[2];
    if (pipe2(Pipe, O_CLOEXEC) != 0)
      return -1;
    posix_spawn_file_actions_t Fa;
    posix_spawn_file_actions_init(&Fa);
    posix_spawn_file_actions_adddup2(&Fa, Pipe[1], STDOUT_FILENO);
    const double T0 = nowSeconds();
    const int Rc =
        posix_spawn(&Pid, Args[0].c_str(), &Fa, nullptr, Argv.data(), environ);
    posix_spawn_file_actions_destroy(&Fa);
    close(Pipe[1]);
    if (Rc != 0) {
      Pid = -1;
      close(Pipe[0]);
      return -1;
    }
    Announce = fdopen(Pipe[0], "r");
    char Line[256];
    if (!Announce || !std::fgets(Line, sizeof(Line), Announce))
      return -1;
    const char *Colon = std::strrchr(Line, ':');
    Port = Colon ? std::atoi(Colon + 1) : 0;
    if (Port <= 0)
      return -1;
    serve::Request Info;
    Info.Method = "info";
    Info.Model = Model;
    std::optional<serve::ServeClient> C = connectTo(Port);
    std::string Err;
    std::optional<json::Value> V;
    if (C)
      V = C->roundTrip(serve::encodeRequest(Info), Err);
    if (!V || !V->boolOr("ok", false))
      return -1;
    return nowSeconds() - T0;
  }

  int port() const { return Port; }

  /// Peak resident set of the daemon (VmHWM), in MB.
  double peakRssMb() const {
    std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
    std::string Key;
    double Kb = 0.0;
    while (In >> Key) {
      if (Key == "VmHWM:") {
        In >> Kb;
        break;
      }
    }
    return Kb / 1024.0;
  }

  std::optional<json::Value> metrics() const {
    std::optional<serve::ServeClient> C = connectTo(Port);
    std::string Err;
    return C ? C->metrics(Err) : std::nullopt;
  }

  /// Asks the daemon to shut down and reaps it (SIGKILL after 20 s).
  /// Returns true when it exited 0.
  bool stop() {
    if (Pid < 0)
      return true;
    if (std::optional<serve::ServeClient> C = connectTo(Port)) {
      std::string Err;
      C->requestShutdown(Err);
    }
    int Status = 0;
    bool Exited = false;
    for (int I = 0; I < 2000 && !Exited; ++I) {
      if (waitpid(Pid, &Status, WNOHANG) == Pid)
        Exited = true;
      else
        usleep(10000);
    }
    if (!Exited) {
      kill(Pid, SIGKILL);
      waitpid(Pid, &Status, 0);
    }
    Pid = -1;
    if (Announce)
      std::fclose(Announce);
    Announce = nullptr;
    return Exited && WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  }

private:
  pid_t Pid = -1;
  int Port = 0;
  std::FILE *Announce = nullptr;
};

/// One answered request, as the client saw it.
struct Answer {
  Kind K = Kind::Craft;
  bool Fresh = false, Cached = false, Certified = false, Refuted = false,
       Containment = false;
  std::string CertPath; ///< Set when a certificate was written.
  double RttMs = 0.0, ServerMs = 0.0;
  std::optional<json::Value> Timings;
  std::string CascadeRung;
  double CascadeEscalations = 0.0;
};

struct Segment {
  std::vector<std::vector<Answer>> PerClient;
  double Wall = 0.0;
  size_t Answered = 0;
};

/// Strips the per-request members (wall times, phase timings, the cached
/// flag) so the rest can be compared byte for byte.
std::string verdictBytes(const json::Value &Result) {
  json::Value V = json::Value::object();
  for (const auto &[Key, Member] : Result.members())
    if (Key != "cached" && Key != "timings" && Key != "time_s")
      V.set(Key, Member);
  return V.serialize();
}

/// Runs the four closed-loop clients against \p D for \p Seconds.
/// \p Next[C] is client C's position in its sequence (it continues across
/// segments).
Segment runClients(const Daemon &D,
                   const std::vector<std::vector<Request>> &Seqs,
                   std::vector<size_t> &Next, double Seconds,
                   std::map<std::string, std::string> &FirstAnswer,
                   std::mutex &FirstMutex, RunResult &R) {
  Segment Seg;
  Seg.PerClient.resize(Clients);
  std::atomic<bool> Stop{false};
  std::atomic<size_t> Failed{0}, Mismatched{0};
  const double Start = nowSeconds();
  std::vector<std::thread> Threads;
  for (int C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      std::optional<serve::ServeClient> Cn = connectTo(D.port());
      if (!Cn) {
        ++Failed;
        return;
      }
      std::vector<Answer> &Out = Seg.PerClient[C];
      while (!Stop && Next[C] < Seqs[C].size()) {
        const Request &Q = Seqs[C][Next[C]];
        serve::Request Req;
        Req.Id = int64_t(Next[C]++);
        Req.Method = "verify";
        Req.SpecText = Q.Spec;
        const double T0 = nowSeconds();
        std::string Err;
        std::optional<json::Value> V =
            Cn->roundTrip(serve::encodeRequest(Req), Err);
        const double Rtt = (nowSeconds() - T0) * 1e3;
        if (nowSeconds() - Start >= Seconds)
          Stop = true;
        const json::Value *Results =
            V && V->boolOr("ok", false) ? V->find("results") : nullptr;
        if (!Results || Results->elements().size() != 1) {
          ++Failed; // Error envelope, shed request or broken transport.
          Out.push_back({});
          Out.back().RttMs = -1.0;
          if (!V)
            return;
          continue;
        }
        const json::Value &Res = Results->elements()[0];
        Answer A;
        A.K = Q.K;
        A.Fresh = Q.Fresh;
        A.RttMs = Rtt;
        A.ServerMs = V->numberOr("server_ms", 0.0);
        A.Cached = Res.boolOr("cached", false);
        A.Certified = Res.boolOr("certified", false);
        A.Refuted = Res.boolOr("refuted", false);
        A.Containment = Res.boolOr("containment", false);
        if (!Res.boolOr("model_loaded", false) ||
            Res.boolOr("deadline_exceeded", false))
          ++Failed;
        if (Res.boolOr("certificate_written", false))
          A.CertPath = Q.CertPath;
        if (const json::Value *T = Res.find("timings"))
          A.Timings = *T;
        A.CascadeRung = Res.stringOr("cascade_rung", "");
        A.CascadeEscalations = Res.numberOr("cascade_escalations", 0.0);
        // Every answer to a query, cache hits included, must carry the
        // same verdict bytes as the first.
        if (Q.CertPath.empty()) {
          const std::string Bytes = verdictBytes(Res);
          std::lock_guard<std::mutex> Lock(FirstMutex);
          auto [It, Inserted] = FirstAnswer.emplace(Q.Spec, Bytes);
          if (!Inserted && It->second != Bytes)
            ++Mismatched;
        }
        Out.push_back(std::move(A));
      }
    });
  for (std::thread &T : Threads)
    T.join();
  Seg.Wall = nowSeconds() - Start;
  for (const std::vector<Answer> &Out : Seg.PerClient)
    Seg.Answered += Out.size();

  for (int C = 0; C < Clients; ++C)
    if (Next[C] == Seqs[C].size())
      R.fail("client " + std::to_string(C) + " ran out of requests");
  R.Attempted += Seg.Answered;
  R.Failed += Failed;
  if (Mismatched)
    R.fail(std::to_string(Mismatched) +
           " answers differ from the first answer to the same query");
  return Seg;
}

double timing(const Answer &A, const char *Key) {
  return A.Timings ? A.Timings->numberOr(Key, 0.0) : 0.0;
}

double counterOf(const json::Value &Metrics, const char *Name) {
  const json::Value *C = Metrics.find("counters");
  return C ? C->numberOr(Name, 0.0) : 0.0;
}

double histogramOf(const json::Value &Metrics, const char *Name,
                   const char *Field) {
  const json::Value *H = Metrics.find("histograms");
  const json::Value *S = H ? H->find(Name) : nullptr;
  return S ? S->numberOr(Field, 0.0) : 0.0;
}

} // namespace

RunResult perfbench::runServeMixed(const Options &Opts) {
  RunResult R;
  const std::vector<Sample> Samples = readSamples(Opts.InputDir);
  const std::string Model = modelPath(Opts.InputDir);
  std::optional<MonDeq> Loaded = MonDeq::load(Model);
  if (Samples.empty() || !Loaded) {
    R.fail("serve-mixed inputs are missing");
    return R;
  }
  const std::string CertDir = Opts.WorkDir + "/certs";
  std::error_code Ec;
  std::filesystem::remove_all(CertDir, Ec);
  std::filesystem::create_directories(CertDir, Ec);
  const std::vector<std::vector<Request>> Seqs =
      makeSequences(Opts.Seed, Samples, Model, CertDir);

  // Set-up: spawn the daemon until it answers with the model resident.
  // Five times before the measured work (the last daemon serves it) and
  // four times after, so the figure spans the run rather than one moment
  // of it.
  std::vector<double> SetupS;
  Daemon D;
  for (int I = 0; I < 5; ++I) {
    if (I > 0 && !D.stop())
      R.fail("the daemon did not exit cleanly");
    const double S = D.start(Opts, Model, "");
    if (S < 0) {
      R.fail("the daemon did not start");
      return R;
    }
    SetupS.push_back(S);
  }

  std::map<std::string, std::string> FirstAnswer;
  std::mutex FirstMutex;
  std::vector<size_t> Next(Clients, 0);
  // Every client's answers across segments, in sequence order.
  std::vector<std::vector<Answer>> History(Clients);
  auto keep = [&](Segment &S) {
    for (int C = 0; C < Clients; ++C)
      History[C].insert(History[C].end(), S.PerClient[C].begin(),
                        S.PerClient[C].end());
  };

  // The run is cut into segments and reports the median segment, so a
  // few seconds disturbed by the host do not move it. A traced run keeps a
  // second daemon with span recording armed and alternates segments
  // between the two in the order ABBAABBA, so host drift cancels from the
  // ratio of their request rates.
  Daemon Traced;
  std::vector<double> PlainQps, TracedQps, P50, P99;
  size_t RttCount = 0, Beyond = SIZE_MAX;
  std::vector<Segment> TracedSegments;
  double TracedWall = 0.0;
  if (Opts.Trace &&
      Traced.start(Opts, Model, Opts.WorkDir + "/serve-trace.json") < 0) {
    R.fail("the traced daemon did not start");
    return R;
  }
  const int Segments = Opts.Trace ? 8 : 5;
  for (int K = 0; K < Segments; ++K) {
    const bool IsTraced = Opts.Trace && (K % 4 == 1 || K % 4 == 2);
    Segment S = runClients(IsTraced ? Traced : D, Seqs, Next,
                           Opts.Seconds / Segments, FirstAnswer, FirstMutex, R);
    (IsTraced ? TracedQps : PlainQps)
        .push_back(ratio(double(S.Answered), S.Wall));
    keep(S);
    if (IsTraced) {
      TracedWall += S.Wall;
      TracedSegments.push_back(std::move(S));
      continue;
    }
    std::vector<double> Rtt;
    for (const std::vector<Answer> &Out : S.PerClient)
      for (const Answer &A : Out)
        if (A.RttMs >= 0)
          Rtt.push_back(A.RttMs);
    P50.push_back(percentile(Rtt, 50));
    P99.push_back(percentile(Rtt, 99));
    RttCount += Rtt.size();
    Beyond = std::min(Beyond, size_t(std::count_if(
                                  Rtt.begin(), Rtt.end(),
                                  [&](double V) { return V > P99.back(); })));
  }
  const double PeakRss = D.peakRssMb();
  if (!D.stop())
    R.fail("the daemon did not exit cleanly");
  std::optional<json::Value> M;
  if (Opts.Trace) {
    M = Traced.metrics();
    if (!Traced.stop())
      R.fail("the traced daemon did not exit cleanly");
  }
  for (int I = 0; I < 4; ++I) {
    const double S = D.start(Opts, Model, "");
    if (S < 0 || !D.stop())
      R.fail("the daemon did not start and exit cleanly");
    SetupS.push_back(S);
  }

  // Precision over each client's first PrecisionPrefix fresh queries:
  // answers depend on query content alone, so these repeat exactly for a
  // seed. (Counting repeats would let the one most popular query swing
  // the figure.)
  size_t Prefix = 0, Certified = 0, Refuted = 0, Contained = 0;
  for (const std::vector<Answer> &Out : History) {
    size_t Fresh = 0;
    for (size_t I = 0; I < Out.size() && Fresh < PrecisionPrefix; ++I) {
      if (!Out[I].Fresh)
        continue;
      ++Fresh;
      Certified += Out[I].Certified;
      Refuted += Out[I].Refuted;
      Contained += Out[I].Containment;
    }
    if (Fresh < PrecisionPrefix)
      R.fail("a client answered fewer than " +
             std::to_string(PrecisionPrefix) + " fresh queries");
    Prefix += Fresh;
  }

  // Every written certificate, from either daemon, must pass the
  // independent checker.
  size_t Certs = 0;
  for (const std::vector<Answer> &Out : History)
    for (const Answer &A : Out)
      if (!A.CertPath.empty()) {
        ++Certs;
        std::optional<RobustnessCertificate> C = loadCertificate(A.CertPath);
        if (!C || !checkCertificate(*Loaded, *C).Ok)
          R.fail("certificate " + A.CertPath + " is rejected by the checker");
      }
  if (Certs == 0)
    R.fail("no certificate was written");

  if (!Opts.Trace) {
    // Every request's round trip also lands in requests.tsv.
    std::ofstream Tsv(Opts.WorkDir + "/requests.tsv");
    Tsv << "client\tkind\tfresh\tcached\trtt_ms\tserver_ms\n";
    for (int C = 0; C < Clients; ++C)
      for (const Answer &A : History[C])
        if (A.RttMs >= 0)
          Tsv << C << "\t" << int(A.K) << "\t" << A.Fresh << "\t" << A.Cached
              << "\t" << A.RttMs << "\t" << A.ServerMs << "\n";
    R.set("qps", median(PlainQps));
    R.set("lat_p50_ms", median(P50));
    R.set("lat_p99_ms", median(P99));
    R.note("latency: client round trip, median of " +
           std::to_string(Segments) + " segments' p50 and p99; " +
           std::to_string(RttCount) + " samples, at least " +
           std::to_string(Beyond) + " beyond p99 in each segment");
    R.note("qps of each segment:" + listed(PlainQps));
    R.set("certified_frac", ratio(double(Certified), double(Prefix)));
    R.set("ok_frac", 1.0 - ratio(double(R.Failed), double(R.Attempted)));
    R.set("setup_s", setupFigure(SetupS));
    R.set("peak_rss_mb", PeakRss);
    R.note(std::to_string(Certs) + " certificates checked; prefix of " +
           std::to_string(Prefix) + " fresh queries: " + std::to_string(Certified) +
           " certified, " + std::to_string(Refuted) + " refuted");
    return R;
  }
  if (!M) {
    R.fail("the daemon's metrics method failed");
    return R;
  }

  std::vector<double> Wire, Solver, Lipschitz, Verify, CertMs;
  double Busy = 0.0, Pgd = 0.0, Parts = 0.0, RttSum = 0.0;
  double CascadeRuns = 0.0, CascadeCheap = 0.0, Escalations = 0.0;
  for (const Segment &S : TracedSegments)
    for (const std::vector<Answer> &Out : S.PerClient)
      for (const Answer &A : Out) {
        if (A.RttMs < 0)
          continue;
        Wire.push_back(A.RttMs - A.ServerMs);
        RttSum += A.RttMs;
        if (A.Cached) {
          // A hit carries the original run's timings; its own server time
          // is all cache lookup.
          Parts += A.RttMs;
          continue;
        }
        const double Engine = timing(A, "solver_ms") + timing(A, "split_ms") +
                              timing(A, "pgd_ms") +
                              timing(A, "certificate_ms");
        Parts += A.RttMs - A.ServerMs + timing(A, "queue_wait_ms") +
                 timing(A, "cache_probe_ms") + timing(A, "model_load_ms") +
                 Engine;
        Busy += Engine;
        Pgd += timing(A, "pgd_ms");
        if (!A.CertPath.empty())
          CertMs.push_back(timing(A, "certificate_ms"));
        if (A.K == Kind::Lipschitz) {
          Lipschitz.push_back(timing(A, "solver_ms"));
          continue;
        }
        Solver.push_back(timing(A, "solver_ms"));
        if (A.K == Kind::Craft && A.CertPath.empty())
          Verify.push_back(timing(A, "solver_ms"));
        if (A.K == Kind::Cascade) {
          ++CascadeRuns;
          CascadeCheap += A.CascadeRung == "box" || A.CascadeRung == "zono";
          Escalations += A.CascadeEscalations;
        }
      }
  const double Submitted = counterOf(*M, "serve.submitted");
  const double Fused = counterOf(*M, "gemm.batch.fused"),
               Plainly = counterOf(*M, "gemm.batch.plain");

  R.set("linalg.fused_frac", ratio(Fused, Fused + Plainly));
  R.set("linalg.pack_sharing", ratio(counterOf(*M, "gemm.batch.packs_unshared"),
                                     counterOf(*M, "gemm.batch.packs_shared")));
  R.set("linalg.wave_timeouts", counterOf(*M, "gemm.batch.timeouts"));
  R.set("core.verify_ms_p50", median(Verify));
  R.set("core.iterations_p50", histogramOf(*M, "craft.iterations", "p50"));
  R.set("core.containment_frac", ratio(double(Contained), double(Prefix)));
  R.set("nn.pgd_share", ratio(Pgd, Busy));
  R.set("nn.refuted_frac", ratio(double(Refuted), double(Prefix)));
  R.set("support.worker_busy_frac", ratio(Busy, TracedWall * 1e3 * DaemonJobs));
  R.set("serve.wire_ms_p50", median(Wire));
  R.set("serve.queue_wait_ms_p50",
        histogramOf(*M, "serve.queue_wait_ns", "p50") / 1e6);
  R.set("serve.queue_wait_ms_p99",
        histogramOf(*M, "serve.queue_wait_ns", "p99") / 1e6);
  R.set("serve.batch_size_mean", ratio(counterOf(*M, "serve.executed"),
                                       counterOf(*M, "serve.batches")));
  R.set("serve.cache_hit_frac",
        ratio(counterOf(*M, "serve.cache_hits"), Submitted));
  R.set("serve.coalesced_frac",
        ratio(counterOf(*M, "serve.coalesced"), Submitted));
  R.set("serve.shed_frac", ratio(counterOf(*M, "serve.shed"), Submitted));
  R.set("tool.solver_ms_p50", median(Solver));
  R.set("tool.cascade_cheap_frac", ratio(CascadeCheap, CascadeRuns));
  R.set("tool.cascade_escalations_mean", ratio(Escalations, CascadeRuns));
  R.set("tool.lipschitz_ms_p50", median(Lipschitz));
  R.set("cert.certificate_ms_p50", median(CertMs));
  R.set("failed_frac", ratio(double(R.Failed), double(R.Attempted)));
  R.set("unattributed_share", 1.0 - ratio(Parts, RttSum));
  R.set("trace.overhead_ratio", ratio(median(TracedQps), median(PlainQps)));
  R.note("traced " + std::to_string(Wire.size()) + " requests");
  return R;
}
