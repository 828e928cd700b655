//===- core/SplitEngine.cpp -----------------------------------------------===//

#include "core/SplitEngine.h"

#include "nn/Solvers.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <memory>

using namespace craft;

namespace {

/// Wave-level metrics of every split run in the process: total waves and
/// the per-wave frontier size distribution (occupancy — how much work
/// each rendezvous actually carried).
const telemetry::Counter SplitWaves = telemetry::counterMetric("split.waves");
const telemetry::Histogram SplitWaveOccupancy =
    telemetry::histogramMetric("split.wave_occupancy");

} // namespace

double craft::measureOf(const Vector &Lo, const Vector &Hi) {
  double M = 1.0;
  for (size_t I = 0; I < Lo.size(); ++I)
    if (Hi[I] > Lo[I])
      M *= Hi[I] - Lo[I];
  return M;
}

namespace {

/// Widest dimension of [Lo, Hi] whose midpoint is strictly interior, or -1
/// when no dimension is splittable (point boxes, subnormal widths). Ties
/// break to the lowest index; pure arithmetic, so every thread, machine,
/// and job count picks the same dimension.
int splitDimension(const Vector &Lo, const Vector &Hi, double &MidOut) {
  int Best = -1;
  double BestWidth = 0.0;
  for (size_t I = 0; I < Lo.size(); ++I) {
    double W = Hi[I] - Lo[I];
    if (W <= BestWidth)
      continue;
    double Mid = 0.5 * (Lo[I] + Hi[I]);
    if (!(Lo[I] < Mid && Mid < Hi[I]))
      continue; // Width so small the midpoint rounds onto an endpoint.
    Best = static_cast<int>(I);
    BestWidth = W;
    MidOut = Mid;
  }
  return Best;
}

/// One frontier entry of the work queue.
struct WorkItem {
  RegionPath Path = 1;
  int Depth = 0;
  Vector Lo, Hi;
  /// The parent's phase-2 end state, shared with the sibling; null for
  /// the root and for children of a parent that left none.
  std::shared_ptr<const Phase2Start> Start;
};

/// Per-wave result slot, written only by the item of its index — the
/// determinism contract of support/ThreadPool.
struct WaveSlot {
  Vector Center;
  int ProbeClass = -1;
  bool Certified = false;
  std::shared_ptr<const Phase2Start> End; ///< For the region's children.
};

} // namespace

SplitEngineResult craft::runSplitEngine(const MonDeq &Model,
                                        const CraftConfig &Config,
                                        const Vector &Lo, const Vector &Hi,
                                        const SplitEngineOptions &Opts) {
  SplitEngineResult Result;
  Result.EffectiveMaxDepth =
      std::clamp(Opts.MaxDepth, 0, MaxSupportedSplitDepth);
  const int Eff = Result.EffectiveMaxDepth;
  Result.TotalUnits = 1ull << Eff;
  if (Lo.empty() || Lo.size() != Hi.size())
    return Result; // Malformed box: nothing certified.

  // Constructing the solver warms the model's lazily cached alpha bound on
  // this thread, so pool workers only ever read the model.
  FixpointSolver Concrete(Model, Splitting::PeacemanRachford);
  CraftVerifier Verifier(Model, Config);

  const bool Refutation = Opts.TargetClass >= 0;
  const auto unitsAt = [Eff](int Depth) { return 1ull << (Eff - Depth); };

  std::vector<WorkItem> Frontier;
  Frontier.push_back({1, 0, Lo, Hi, nullptr});
  std::vector<WorkItem> Next;
  std::vector<WaveSlot> Slots;

  while (!Frontier.empty()) {
    if (Config.Control.stopRequested()) {
      // Deadline/cancel at a wave boundary (the same granularity as the
      // refutation early-abort): the remaining frontier becomes undecided
      // leaves so the unit accounting stays exact and the partial result
      // stays sound.
      for (WorkItem &Item : Frontier) {
        ++Result.NumUndecided;
        Result.Leaves.push_back({Item.Path, Item.Depth, std::move(Item.Lo),
                                 std::move(Item.Hi), -1});
      }
      Frontier.clear();
      break;
    }
    TRACE_SPAN("split.wave");
    ++Result.NumWaves;
    SplitWaves.increment();
    SplitWaveOccupancy.observe(Frontier.size());
    Slots.assign(Frontier.size(), WaveSlot{});

    // Phase 1 — concrete center probes. Every probe of the wave runs
    // (each is one forward solve) and the index-order scan below resolves
    // refutations, so the winning witness is the lowest-path one under
    // every job count.
    parallelForIndex(Frontier.size(), Opts.Jobs, [&](size_t I) {
      WaveSlot &S = Slots[I];
      S.Center = 0.5 * (Frontier[I].Lo + Frontier[I].Hi);
      S.ProbeClass = Concrete.predict(S.Center);
    });
    if (Refutation) {
      for (size_t I = 0; I < Frontier.size(); ++I) {
        if (Slots[I].ProbeClass != Opts.TargetClass) {
          // Early-abort broadcast: the refutation kills this wave's
          // verifier phase and every deeper wave — abort lands on a wave
          // boundary precisely so outcomes stay byte-identical for
          // jobs = 1 vs N.
          Result.Refuted = true;
          Result.Counterexample = std::move(Slots[I].Center);
          Result.CounterexamplePath = Frontier[I].Path;
          return Result;
        }
      }
    }

    // Phase 2 — abstract verification (the expensive phase). A child
    // starts from its parent's phase-2 end state (see the file comment).
    parallelForIndex(Frontier.size(), Opts.Jobs, [&](size_t I) {
      const WorkItem &Item = Frontier[I];
      int Target = Refutation ? Opts.TargetClass : Slots[I].ProbeClass;
      CraftResult Res = Verifier.verifyRegion(Item.Lo, Item.Hi, Target, {},
                                              Item.Start.get());
      Slots[I].Certified = Res.Certified;
      Slots[I].End = std::move(Res.Phase2End);
    });
    Result.NumVerifierCalls += Frontier.size();

    // Phase 3 — sequential expansion in path order.
    Next.clear();
    for (size_t I = 0; I < Frontier.size(); ++I) {
      WorkItem &Item = Frontier[I];
      Item.Start.reset(); // Its wave is over; free the parent's state.
      if (Slots[I].Certified) {
        int Class = Refutation ? Opts.TargetClass : Slots[I].ProbeClass;
        Result.CertifiedUnits += unitsAt(Item.Depth);
        ++Result.NumCertified;
        Result.Leaves.push_back({Item.Path, Item.Depth, std::move(Item.Lo),
                                 std::move(Item.Hi), Class});
        continue;
      }
      double Mid = 0.0;
      int Dim =
          Item.Depth < Eff ? splitDimension(Item.Lo, Item.Hi, Mid) : -1;
      if (Dim < 0) {
        // Depth budget exhausted or nothing splittable: undecided leaf.
        ++Result.NumUndecided;
        Result.Leaves.push_back({Item.Path, Item.Depth, std::move(Item.Lo),
                                 std::move(Item.Hi), -1});
        continue;
      }
      WorkItem LoHalf{Item.Path << 1, Item.Depth + 1, Item.Lo, Item.Hi,
                      Slots[I].End};
      LoHalf.Hi[Dim] = Mid;
      WorkItem HiHalf{(Item.Path << 1) | 1, Item.Depth + 1,
                      std::move(Item.Lo), std::move(Item.Hi),
                      std::move(Slots[I].End)};
      HiHalf.Lo[Dim] = Mid;
      Next.push_back(std::move(LoHalf));
      Next.push_back(std::move(HiHalf));
    }
    Frontier.swap(Next);
  }

  // Optional PGD probes on the undecided leaves, in fixed-size chunks so
  // the early abort again lands on a deterministic boundary: every probe
  // of a chunk runs, the lowest-path refutation wins, later chunks are
  // skipped.
  if (Refutation && Opts.PgdProbes && Result.NumUndecided > 0) {
    std::vector<const SplitLeaf *> Targets;
    for (const SplitLeaf &L : Result.Leaves) {
      if (L.CertifiedClass >= 0)
        continue;
      // Point leaves have no ball to attack (their center probe already
      // ran); skipping them here keeps NumPgdProbes an honest count of
      // attacks that actually executed.
      double MaxWidth = 0.0;
      for (size_t D = 0; D < L.Lo.size(); ++D)
        MaxWidth = std::max(MaxWidth, L.Hi[D] - L.Lo[D]);
      if (MaxWidth > 0.0)
        Targets.push_back(&L);
    }

    struct ProbeSlot {
      bool Refutes = false;
      Vector Witness;
      uint64_t Seed = 0;
    };
    constexpr size_t Chunk = 16; // Independent of Jobs by design.
    std::vector<ProbeSlot> Probes;
    for (size_t Begin = 0; Begin < Targets.size() && !Result.Refuted &&
                           !Config.Control.stopRequested();
         Begin += Chunk) {
      const size_t End = std::min(Begin + Chunk, Targets.size());
      Probes.assign(End - Begin, ProbeSlot{});
      parallelForIndex(End - Begin, Opts.Jobs, [&](size_t I) {
        const SplitLeaf &L = *Targets[Begin + I];
        double Eps = 0.0;
        for (size_t D = 0; D < L.Lo.size(); ++D)
          Eps = std::max(Eps, 0.5 * (L.Hi[D] - L.Lo[D]));
        PgdOptions Attack = Opts.Pgd;
        Attack.Epsilon = Eps;
        // Seeded by region path, so the probe stream is a pure function
        // of (base seed, bisection path) — never of scheduling.
        Attack.Seed = taskSeed(Opts.ProbeSeedBase, L.Path);
        Vector Center = 0.5 * (L.Lo + L.Hi);
        PgdResult Adv =
            pgdAttack(Model, Concrete, Center, Opts.TargetClass, Attack);
        if (!Adv.FoundAdversarial)
          return;
        // The probe ball can overhang the leaf in its narrow dimensions:
        // project the candidate back into the leaf box (a subset of the
        // query box) and keep it only if it still misclassifies there.
        Vector X = std::move(Adv.Adversarial);
        for (size_t D = 0; D < X.size(); ++D)
          X[D] = std::min(std::max(X[D], L.Lo[D]), L.Hi[D]);
        if (Concrete.predict(X) == Opts.TargetClass)
          return;
        ProbeSlot &S = Probes[I];
        S.Refutes = true;
        S.Witness = std::move(X);
        S.Seed = Attack.Seed;
      });
      Result.NumPgdProbes += End - Begin;
      for (size_t I = 0; I < End - Begin; ++I) {
        if (Probes[I].Refutes) {
          Result.Refuted = true;
          Result.RefutedByPgd = true;
          Result.Counterexample = std::move(Probes[I].Witness);
          Result.CounterexamplePath = Targets[Begin + I]->Path;
          Result.PgdSeed = Probes[I].Seed;
          break;
        }
      }
    }
  }
  return Result;
}
