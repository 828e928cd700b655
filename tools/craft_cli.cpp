//===- tools/craft_cli.cpp - The craft command-line tool ------------------===//
//
// The end-user entry point of the repository:
//
//   craft verify [--jobs N] <spec-file>...   run verification specs
//   craft split [--jobs N] [--depth N] <spec-file>...
//                                            global certification by
//                                            domain splitting
//   craft serve [options]                    run the verification daemon
//   craft client --port N [...] <spec>...    query a running daemon
//   craft info <model.bin>                   print model metadata
//   craft check <model.bin> <cert>           validate a proof witness
//
// Spec files are documented in src/tool/SpecParser.h and README.md. A spec
// file may hold several `input` blocks; all queries from all files form one
// batch that `--jobs N` fans out over N threads, the caller included (0 =
// all hardware threads; capped at the pool's bound). Results are printed in input order and are identical for every
// job count.
//
// Exit codes (verify and client; scripts and the serve smoke test branch
// on these):
//   0  every query certified
//   1  at least one query refuted by a concrete counterexample
//   2  usage, spec parse, model load, spec/model mismatch (wrong input
//      dimension, target class out of range), or transport errors
//   3  at least one query undecided (not certified, not refuted — e.g.
//      an exhausted iteration budget), and none refuted
//   4  at least one query cut short by a --deadline-ms budget (and none
//      refuted or errored) — a timing-dependent non-answer, distinct
//      from 3 so scripts can retry with a larger budget
// Errors dominate refutations dominate deadline-exceeded dominate
// undecided: a code >= 1 means "not every query certified", and 2
// additionally means "results incomplete".
// `craft split` reports the certified-volume fraction per query: 0 when
// every query certifies its whole box, 3 when volume is left uncertified,
// 2 on errors. `craft serve` exits 0 on a clean shutdown request and 2 on
// setup errors; `craft info` / `craft check` keep their 0/2 and 0/1/2
// contracts.
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "serve/Server.h"
#include "tool/Driver.h"

#include "linalg/Kernels.h"
#include "support/Telemetry.h"
#include "support/TraceJson.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <vector>

using namespace craft;

static int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  craft verify [--jobs N] [--deadline-ms N] [--timings]\n"
      "               [--domain box|zono|chzono] <spec-file>...\n"
      "  craft split [--jobs N] [--depth N] <spec-file>...\n"
      "  craft serve [--port N] [--stdio] [--jobs N] [--max-batch N]\n"
      "              [--cache-entries N] [--queue-capacity N]\n"
      "              [--max-conns N] [--trace-out FILE]\n"
      "  craft client --port N [--no-cache] [--ping] [--metrics]\n"
      "               [--deadline-ms N] [--timeout-ms N]\n"
      "               [--retries N] [--drain] [--shutdown]\n"
      "               [<spec-file>...]\n"
      "  craft info <model.bin>\n"
      "  craft check <model.bin> <certificate.bin>\n"
      "exit codes (verify/client): 0 certified, 1 refuted, 2 error,\n"
      "3 undecided, 4 deadline exceeded\n");
  return 2;
}

namespace {

/// Exit codes of the verify/client contract (see the file header).
enum ExitCode {
  ExitCertified = 0,
  ExitRefuted = 1,
  ExitError = 2,
  ExitUnknown = 3,
  ExitDeadline = 4,
};

/// Folds one outcome into the aggregate exit code: error > refuted >
/// deadline-exceeded > undecided > certified. Load failures and
/// spec/model mismatches (RunOutcome::Error) are both errors: the query
/// never executed, so "undecided" would misreport a broken pipeline. A
/// deadline cut ranks above plain undecided (the budget, not the
/// verifier, decided) but below a refutation found before the cut.
void foldExit(int &Exit, const RunOutcome &Out) {
  int Code = !Out.ModelLoaded || Out.Error ? ExitError
             : Out.Certified               ? ExitCertified
             : Out.Refuted                 ? ExitRefuted
             : Out.DeadlineExceeded        ? ExitDeadline
                                           : ExitUnknown;
  // Severity order is not numeric order (3 and 4 rank below 1 and 2).
  auto Rank = [](int C) {
    return C == ExitError      ? 4
           : C == ExitRefuted  ? 3
           : C == ExitDeadline ? 2
           : C == ExitUnknown  ? 1
                               : 0;
  };
  if (Rank(Code) > Rank(Exit))
    Exit = Code;
}

const char *verdictName(const RunOutcome &Out) {
  return Out.Certified          ? "CERTIFIED"
         : Out.Refuted          ? "REFUTED"
         : Out.DeadlineExceeded ? "DEADLINE EXCEEDED"
                                : "not certified";
}

/// The closing lines `craft verify` and `craft client` share: detail,
/// and the witness point of a refutation (split refinement and the PGD
/// pass both carry one).
void printDetailWitness(const RunOutcome &Out) {
  if (!Out.Detail.empty())
    std::printf("detail       %s\n", Out.Detail.c_str());
  if (!Out.Refuted || Out.Counterexample.empty())
    return;
  std::printf("counterexample");
  for (double C : Out.Counterexample)
    std::printf(" %.17g", C);
  std::printf("\n");
}

void printOutcome(const VerificationSpec &Spec, const RunOutcome &Out) {
  std::printf("engine       %s\n",
              Spec.Verifier == SpecVerifier::Craft      ? "craft"
              : Spec.Verifier == SpecVerifier::Box      ? "box"
              : Spec.Verifier == SpecVerifier::Crown    ? "crown"
                                                        : "lipschitz");
  std::printf("verdict      %s\n", verdictName(Out));
  if (Spec.Verifier == SpecVerifier::Craft ||
      Spec.Verifier == SpecVerifier::Box)
    std::printf("containment  %s\n", Out.Containment ? "yes" : "no");
  std::printf("margin       %.6f\n", Out.MarginLower);
  std::printf("time         %.3f ms\n", Out.TimeSeconds * 1e3);
  printDetailWitness(Out);
  if (!Spec.CertificatePath.empty() && Out.Certified)
    std::printf("certificate  %s\n",
                Out.CertificateWritten ? Spec.CertificatePath.c_str()
                : Spec.SplitDepth > 0  ? "(not supported for split runs)"
                                       : "(construction failed)");
}

/// `craft verify --timings`: one line of `key=value` pairs, exactly the
/// rows and keys of the wire "timings" object (the serve-only
/// queue/cache/model slices are always zero here).
void printTimings(const RunOutcome &Out) {
  if (!Out.Phases.Populated) {
    std::printf("timings      (unavailable: CRAFT_TELEMETRY=0)\n");
    return;
  }
  const PhaseBreakdown &Ph = Out.Phases;
  std::printf("timings     ");
  for (const PhaseRow &Row : PhaseRows)
    std::printf(" %s=%.3f", Row.Key, Ph.*Row.Ms);
  std::printf(" %s=%llu\n", SolverIterationsKey,
              static_cast<unsigned long long>(Ph.SolverIterations));
}

int runVerify(const std::vector<std::string> &Files, int Jobs,
              double DeadlineMs, bool Timings,
              std::optional<VerifierDomain> Domain) {
  std::vector<VerificationSpec> Specs;
  std::vector<const std::string *> Sources; // Spec I came from *Sources[I].
  bool ParseFailed = false;
  for (const std::string &File : Files) {
    SpecParseResult Parsed = parseSpecFile(File);
    if (!Parsed.ok()) {
      for (const SpecDiagnostic &D : Parsed.Diagnostics)
        std::fprintf(stderr, "%s\n", D.render(File).c_str());
      ParseFailed = true;
      continue;
    }
    for (VerificationSpec &Spec : Parsed.Specs) {
      Specs.push_back(std::move(Spec));
      Sources.push_back(&File);
    }
  }
  if (ParseFailed)
    return ExitError;

  // --domain overrides every query, mirroring the spec directive — and,
  // like it, only makes sense for the craft engine (the `box` engine
  // keyword is craft-on-intervals shorthand).
  if (Domain)
    for (size_t I = 0; I < Specs.size(); ++I) {
      if (Specs[I].Verifier != SpecVerifier::Craft &&
          Specs[I].Verifier != SpecVerifier::Box) {
        std::fprintf(stderr,
                     "error: --domain requires the craft engine, but query "
                     "%zu (%s) uses another verifier\n",
                     I + 1, Sources[I]->c_str());
        return ExitError;
      }
      Specs[I].Verifier = SpecVerifier::Craft;
      Specs[I].Domain = *Domain;
    }

  // Workers would race writing the same witness file: the parser suffixes
  // certificate paths within one spec file, so only cross-file batches can
  // still collide — reject those up front.
  std::set<std::string> CertPaths;
  for (const VerificationSpec &Spec : Specs)
    if (!Spec.CertificatePath.empty() &&
        !CertPaths.insert(Spec.CertificatePath).second) {
      std::fprintf(stderr,
                   "error: certificate path '%s' is used by more than one "
                   "query in this batch\n",
                   Spec.CertificatePath.c_str());
      return ExitError;
    }

  BatchOptions Opts;
  Opts.Jobs = Jobs;
  Opts.DeadlineMs = DeadlineMs;
  std::vector<RunOutcome> Outcomes = runSpecBatch(Specs, Opts);

  int Exit = ExitCertified;
  for (size_t I = 0; I < Specs.size(); ++I) {
    if (Specs.size() > 1)
      std::printf("%s== query %zu (%s) ==\n", I == 0 ? "" : "\n", I + 1,
                  Sources[I]->c_str());
    const RunOutcome &Out = Outcomes[I];
    foldExit(Exit, Out);
    if (!Out.ModelLoaded || Out.Error) {
      std::fprintf(stderr, "error: %s\n", Out.Detail.c_str());
      continue;
    }
    printOutcome(Specs[I], Out);
    if (Timings)
      printTimings(Out);
  }
  // CRAFT_TRACE=1 runs dump the span ring next to the results (path from
  // $CRAFT_TRACE_OUT, default craft_trace.json); no-op otherwise.
  std::string TraceError;
  if (!tracejson::maybeWriteTrace("", TraceError))
    std::fprintf(stderr, "warning: %s\n", TraceError.c_str());
  return Exit;
}

/// `craft split`: global certification of each query's input box. Every
/// region is certified against the class its own center predicts, so the
/// spec's `output robust <class>` is ignored here; `--depth`/`--jobs`
/// override the spec's `split-depth`/`split-jobs`.
int runSplit(const std::vector<std::string> &Files, int Jobs, bool HaveJobs,
             long Depth) {
  std::vector<VerificationSpec> Specs;
  std::vector<const std::string *> Sources;
  for (const std::string &File : Files) {
    SpecParseResult Parsed = parseSpecFile(File);
    if (!Parsed.ok()) {
      for (const SpecDiagnostic &D : Parsed.Diagnostics)
        std::fprintf(stderr, "%s\n", D.render(File).c_str());
      return ExitError;
    }
    for (VerificationSpec &Spec : Parsed.Specs) {
      Specs.push_back(std::move(Spec));
      Sources.push_back(&File);
    }
  }

  int Exit = ExitCertified;
  for (size_t I = 0; I < Specs.size(); ++I) {
    const VerificationSpec &Spec = Specs[I];
    if (Specs.size() > 1)
      std::printf("%s== query %zu (%s) ==\n", I == 0 ? "" : "\n", I + 1,
                  Sources[I]->c_str());
    int QueryJobs =
        HaveJobs ? Jobs : (Spec.SplitJobs == 0 ? -1 : Spec.SplitJobs);
    int QueryDepth = Depth > 0 ? static_cast<int>(Depth)
                     : Spec.SplitDepth > 0 ? Spec.SplitDepth
                                           : 8;
    SplitRunOutcome Out = runSplitCertification(Spec, QueryJobs, QueryDepth);
    if (!Out.ModelLoaded || Out.Error) {
      std::fprintf(stderr, "error: %s\n", Out.Detail.c_str());
      Exit = ExitError;
      continue;
    }
    const SplitResult &Res = Out.Split;
    std::printf("certified    %.6f%% of the input box\n",
                100.0 * Res.CertifiedFraction);
    std::printf("regions      %zu (%zu certified, %zu undecided)\n",
                Res.Regions.size(), Res.NumCertified,
                Res.Regions.size() - Res.NumCertified);
    std::printf("calls        %zu verifier calls in %zu waves\n",
                Res.NumVerifierCalls, Res.NumWaves);
    std::printf("measure      %.6g over the non-degenerate dimensions\n",
                measureOf(Spec.InLo, Spec.InHi));
    std::printf("time         %.3f ms\n", Out.TimeSeconds * 1e3);
    // Exact leaf accounting, not the rounded fraction: a deep tree's
    // uncertified tail can vanish below double precision.
    if (Res.NumCertified < Res.Regions.size() && Exit == ExitCertified)
      Exit = ExitUnknown;
  }
  return Specs.empty() ? ExitError : Exit;
}

/// Parses a nonnegative integer option value (\p What for diagnostics).
bool parseCount(const char *Digits, const char *What, long Max,
                long &Value) {
  char *End = nullptr;
  errno = 0;
  Value = std::strtol(Digits, &End, 10);
  if (End == Digits || *End != '\0' || Value < 0 || errno == ERANGE ||
      Value > Max) {
    std::fprintf(stderr, "error: %s needs a count in [0, %ld]\n", What,
                 Max);
    return false;
  }
  return true;
}

/// Parses the --jobs count (\p Digits). On success stores a runSpecBatch
/// jobs value into \p Jobs (user's 0 = all hardware threads maps to the
/// API's <= 0 convention); on failure prints the error and returns false.
bool parseJobs(const char *Digits, int &Jobs) {
  long V = 0;
  if (!parseCount(Digits, "--jobs", 65536, V))
    return false;
  Jobs = V == 0 ? -1 : static_cast<int>(V);
  return true;
}

int runServe(int Argc, char **Argv) {
  serve::ServerOptions Opts;
  bool Stdio = false;
  bool HavePort = false;
  for (int I = 2; I < Argc; ++I) {
    auto needValue = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Flag);
        return nullptr;
      }
      return Argv[++I];
    };
    if (std::strcmp(Argv[I], "--port") == 0) {
      const char *V = needValue("--port");
      long Port = 0;
      if (!V || !parseCount(V, "--port", 65535, Port))
        return ExitError;
      Opts.Port = static_cast<int>(Port);
      HavePort = true;
    } else if (std::strcmp(Argv[I], "--stdio") == 0) {
      Stdio = true;
    } else if (std::strcmp(Argv[I], "--jobs") == 0 ||
               std::strcmp(Argv[I], "-j") == 0) {
      const char *V = needValue("--jobs");
      if (!V || !parseJobs(V, Opts.Sched.Jobs))
        return ExitError;
    } else if (std::strcmp(Argv[I], "--max-batch") == 0) {
      const char *V = needValue("--max-batch");
      long N = 0;
      if (!V || !parseCount(V, "--max-batch", 1 << 20, N) || N < 1)
        return ExitError;
      Opts.Sched.MaxBatch = static_cast<size_t>(N);
    } else if (std::strcmp(Argv[I], "--cache-entries") == 0) {
      const char *V = needValue("--cache-entries");
      long N = 0;
      if (!V || !parseCount(V, "--cache-entries", 1L << 30, N) || N < 1)
        return ExitError;
      Opts.Sched.CacheCapacity = static_cast<size_t>(N);
    } else if (std::strcmp(Argv[I], "--queue-capacity") == 0) {
      const char *V = needValue("--queue-capacity");
      long N = 0;
      if (!V || !parseCount(V, "--queue-capacity", 1L << 20, N) || N < 1)
        return ExitError;
      Opts.Sched.QueueCapacity = static_cast<size_t>(N);
    } else if (std::strcmp(Argv[I], "--max-conns") == 0) {
      const char *V = needValue("--max-conns");
      long N = 0;
      if (!V || !parseCount(V, "--max-conns", 1L << 16, N) || N < 1)
        return ExitError;
      Opts.MaxConnections = static_cast<size_t>(N);
    } else if (std::strcmp(Argv[I], "--trace-out") == 0) {
      const char *V = needValue("--trace-out");
      if (!V)
        return ExitError;
      // The flag both arms tracing and names the dump file; shutdown()
      // writes it (CRAFT_TRACE=1 without the flag also works, falling
      // back to $CRAFT_TRACE_OUT / craft_trace.json).
      Opts.TraceOutPath = V;
      telemetry::setTraceEnabled(true);
    } else {
      std::fprintf(stderr, "error: unknown serve option '%s'\n", Argv[I]);
      return usage();
    }
  }
  if (!HavePort && !Stdio)
    Stdio = true; // Bare `craft serve` is a stdio service.

  serve::Server Daemon(Opts);
  // SIGTERM means "drain": finish in-flight work, answer new queries
  // with "draining", exit 0 — what a supervisor (systemd, k8s) expects.
  Daemon.installSignalDrain();
  std::string Error;
  if (!Daemon.start(Error)) {
    std::fprintf(stderr, "error: cannot listen on 127.0.0.1:%d: %s\n",
                 Opts.Port, Error.c_str());
    return ExitError;
  }
  if (HavePort) {
    // Machine-parseable announce line: the e2e harness and scripts read
    // the ephemeral port from here. stdout unless stdio is the protocol
    // channel.
    std::fprintf(Stdio ? stderr : stdout,
                 "craft-serve: listening on 127.0.0.1:%d\n",
                 Daemon.boundPort());
    std::fflush(Stdio ? stderr : stdout);
  }
  if (Stdio)
    Daemon.runStdio(stdin, stdout);
  else
    Daemon.waitForShutdown();
  // Stdio EOF also lands here: drain and leave cleanly.
  Daemon.shutdown();
  return 0;
}

int runClient(int Argc, char **Argv) {
  int Port = -1;
  bool NoCache = false, Ping = false, Shutdown = false;
  bool Drain = false, Metrics = false;
  long DeadlineMs = -1, TimeoutMs = 0, Retries = 0;
  std::vector<std::string> Files;
  for (int I = 2; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--port") == 0) {
      if (I + 1 >= Argc)
        return usage();
      long V = 0;
      if (!parseCount(Argv[++I], "--port", 65535, V))
        return ExitError;
      Port = static_cast<int>(V);
    } else if (std::strcmp(Argv[I], "--no-cache") == 0) {
      NoCache = true;
    } else if (std::strcmp(Argv[I], "--ping") == 0) {
      Ping = true;
    } else if (std::strcmp(Argv[I], "--metrics") == 0) {
      Metrics = true;
    } else if (std::strcmp(Argv[I], "--shutdown") == 0) {
      Shutdown = true;
    } else if (std::strcmp(Argv[I], "--drain") == 0) {
      Drain = true;
    } else if (std::strcmp(Argv[I], "--deadline-ms") == 0) {
      if (I + 1 >= Argc)
        return usage();
      if (!parseCount(Argv[++I], "--deadline-ms", 1L << 30, DeadlineMs))
        return ExitError;
    } else if (std::strcmp(Argv[I], "--timeout-ms") == 0) {
      if (I + 1 >= Argc)
        return usage();
      if (!parseCount(Argv[++I], "--timeout-ms", 1L << 30, TimeoutMs))
        return ExitError;
    } else if (std::strcmp(Argv[I], "--retries") == 0) {
      if (I + 1 >= Argc)
        return usage();
      if (!parseCount(Argv[++I], "--retries", 100, Retries))
        return ExitError;
    } else if (Argv[I][0] == '-') {
      std::fprintf(stderr, "error: unknown client option '%s'\n", Argv[I]);
      return usage();
    } else {
      Files.push_back(Argv[I]);
    }
  }
  if (Port < 0) {
    std::fprintf(stderr, "error: craft client needs --port N\n");
    return usage();
  }
  if (Files.empty() && !Ping && !Metrics && !Shutdown && !Drain)
    return usage();

  serve::ServeClient Client;
  serve::RetryPolicy Policy;
  Policy.MaxAttempts = static_cast<int>(Retries) + 1;
  Policy.TimeoutMs = static_cast<int>(TimeoutMs);
  Client.setRetryPolicy(Policy);
  std::string Error;
  if (!Client.connect(Port, Error)) {
    std::fprintf(stderr, "error: cannot connect to 127.0.0.1:%d: %s\n",
                 Port, Error.c_str());
    return ExitError;
  }

  int Exit = ExitCertified;
  if (Ping) {
    if (!Client.ping(Error)) {
      std::fprintf(stderr, "error: ping failed: %s\n", Error.c_str());
      return ExitError;
    }
    std::printf("pong\n");
  }

  size_t QueryNo = 0;
  for (const std::string &File : Files) {
    std::FILE *F = std::fopen(File.c_str(), "rb");
    if (!F) {
      std::fprintf(stderr, "error: cannot open '%s'\n", File.c_str());
      return ExitError;
    }
    std::string SpecText;
    char Buf[4096];
    size_t N;
    while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
      SpecText.append(Buf, N);
    std::fclose(F);

    std::optional<serve::VerifyReply> Reply =
        Client.verify(SpecText, Error, !NoCache,
                      static_cast<double>(DeadlineMs));
    if (!Reply) {
      std::fprintf(stderr, "error: %s: %s\n", File.c_str(), Error.c_str());
      return ExitError;
    }
    for (const serve::WireResult &R : Reply->Results) {
      ++QueryNo;
      std::printf("%s== query %zu (%s) ==\n", QueryNo == 1 ? "" : "\n",
                  QueryNo, File.c_str());
      const RunOutcome &Out = R.Outcome;
      foldExit(Exit, Out);
      if (!Out.ModelLoaded || Out.Error) {
        std::printf("error        %s\n", Out.Detail.c_str());
        continue;
      }
      std::printf("verdict      %s\n", verdictName(Out));
      std::printf("margin       %.6f\n", Out.MarginLower);
      std::printf("time         %.3f ms\n", Out.TimeSeconds * 1e3);
      std::printf("cached       %s\n", R.Cached ? "yes" : "no");
      printDetailWitness(Out);
    }
    std::printf("server time  %.3f ms\n", Reply->ServerMs);
  }

  if (Metrics) {
    std::optional<json::Value> Doc = Client.metrics(Error);
    if (!Doc) {
      std::fprintf(stderr, "error: metrics failed: %s\n", Error.c_str());
      return ExitError;
    }
    std::printf("%s\n", Doc->serialize().c_str());
  }
  if (Drain) {
    if (!Client.requestDrain(Error)) {
      std::fprintf(stderr, "error: drain failed: %s\n", Error.c_str());
      return ExitError;
    }
    std::printf("server draining\n");
  }
  if (Shutdown) {
    if (!Client.requestShutdown(Error)) {
      std::fprintf(stderr, "error: shutdown failed: %s\n", Error.c_str());
      return ExitError;
    }
    std::printf("server shutting down\n");
  }
  return Exit;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  // One startup line on stderr (stdout stays machine-parseable): which
  // kernel tier this process dispatched to, so perf reports are
  // attributable to the ISA in use.
  std::fprintf(stderr, "craft: kernel backend %s, %zu kernel thread%s\n",
               kernels::kernelBackendName(kernels::activeKernelBackend()),
               kernels::kernelThreadCount(),
               kernels::kernelThreadCount() == 1 ? "" : "s");
  if (std::strcmp(Argv[1], "verify") == 0) {
    int Jobs = 1;
    long DeadlineMs = -1; // < 0 = no budget.
    bool Timings = false;
    std::optional<VerifierDomain> Domain;
    std::vector<std::string> Files;
    for (int I = 2; I < Argc; ++I) {
      if (std::strcmp(Argv[I], "--jobs") == 0 ||
          std::strcmp(Argv[I], "-j") == 0) {
        if (I + 1 >= Argc)
          return usage();
        if (!parseJobs(Argv[++I], Jobs))
          return 2;
      } else if (std::strncmp(Argv[I], "--jobs=", 7) == 0) {
        if (!parseJobs(Argv[I] + 7, Jobs))
          return 2;
      } else if (std::strcmp(Argv[I], "--deadline-ms") == 0) {
        if (I + 1 >= Argc)
          return usage();
        if (!parseCount(Argv[++I], "--deadline-ms", 1L << 30, DeadlineMs))
          return 2;
      } else if (std::strcmp(Argv[I], "--timings") == 0) {
        Timings = true;
      } else if (std::strcmp(Argv[I], "--domain") == 0) {
        if (I + 1 >= Argc)
          return usage();
        Domain = parseVerifierDomain(Argv[++I]);
        if (!Domain) {
          std::fprintf(stderr,
                       "error: unknown domain '%s' (box, zono, chzono)\n",
                       Argv[I]);
          return 2;
        }
      } else if (Argv[I][0] == '-') {
        std::fprintf(stderr, "error: unknown option '%s'\n", Argv[I]);
        return usage();
      } else {
        Files.push_back(Argv[I]);
      }
    }
    if (Files.empty())
      return usage();
    return runVerify(Files, Jobs, static_cast<double>(DeadlineMs), Timings,
                     Domain);
  }
  if (std::strcmp(Argv[1], "split") == 0) {
    int Jobs = 1;
    bool HaveJobs = false;
    long Depth = 0; // 0 = defer to the spec's split-depth (or 8).
    std::vector<std::string> Files;
    for (int I = 2; I < Argc; ++I) {
      if (std::strcmp(Argv[I], "--jobs") == 0 ||
          std::strcmp(Argv[I], "-j") == 0) {
        if (I + 1 >= Argc)
          return usage();
        if (!parseJobs(Argv[++I], Jobs))
          return 2;
        HaveJobs = true;
      } else if (std::strcmp(Argv[I], "--depth") == 0) {
        if (I + 1 >= Argc)
          return usage();
        if (!parseCount(Argv[++I], "--depth", MaxSupportedSplitDepth,
                        Depth))
          return 2;
        if (Depth < 1) {
          std::fprintf(stderr, "error: --depth needs a count in [1, %d]\n",
                       MaxSupportedSplitDepth);
          return 2;
        }
      } else if (Argv[I][0] == '-') {
        std::fprintf(stderr, "error: unknown option '%s'\n", Argv[I]);
        return usage();
      } else {
        Files.push_back(Argv[I]);
      }
    }
    if (Files.empty())
      return usage();
    return runSplit(Files, Jobs, HaveJobs, Depth);
  }
  if (std::strcmp(Argv[1], "serve") == 0)
    return runServe(Argc, Argv);
  if (std::strcmp(Argv[1], "client") == 0)
    return runClient(Argc, Argv);
  if (std::strcmp(Argv[1], "info") == 0 && Argc == 3)
    return printModelInfo(Argv[2]) ? 0 : 2;
  if (std::strcmp(Argv[1], "check") == 0 && Argc == 4)
    return runCheck(Argv[2], Argv[3]) ? 0 : 1;
  return usage();
}
