//===- tool/SpecCanon.cpp -------------------------------------------------===//

#include "tool/SpecCanon.h"

#include "support/ThreadPool.h"

#include <cstdio>

using namespace craft;

uint64_t craft::fnv1a64(const void *Data, size_t Size) {
  const unsigned char *Bytes = static_cast<const unsigned char *>(Data);
  uint64_t H = 1469598103934665603ull;
  for (size_t I = 0; I < Size; ++I) {
    H ^= Bytes[I];
    H *= 1099511628211ull;
  }
  return H;
}

namespace {

void appendDouble(std::string &Out, double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  Out += Buf;
}

void appendVector(std::string &Out, const char *Name, const Vector &V) {
  Out += Name;
  Out += '=';
  for (size_t I = 0; I < V.size(); ++I) {
    if (I)
      Out += ',';
    appendDouble(Out, V[I]);
  }
  Out += ';';
}

} // namespace

std::string craft::canonicalSpec(const VerificationSpec &Spec) {
  // v2: the domain joined the canonical form, so a cached Box verdict
  // never answers a CH-Zonotope request. v3: the cascade policy left it.
  std::string Out = "craftspec.v3;";
  Out += "verifier=";
  Out += Spec.Verifier == SpecVerifier::Craft   ? "craft"
         : Spec.Verifier == SpecVerifier::Box   ? "box"
         : Spec.Verifier == SpecVerifier::Crown ? "crown"
                                                : "lipschitz";
  Out += ";domain=";
  Out += verifierDomainName(Spec.Domain);
  Out += ";target=" + std::to_string(Spec.TargetClass) + ";";
  appendVector(Out, "lo", Spec.InLo);
  appendVector(Out, "hi", Spec.InHi);
  appendVector(Out, "center", Spec.Center);
  Out += "epsilon=";
  appendDouble(Out, Spec.Epsilon);
  Out += ";clamp=";
  appendDouble(Out, Spec.ClampLo);
  Out += ',';
  appendDouble(Out, Spec.ClampHi);
  Out += ";alpha1=";
  appendDouble(Out, Spec.Alpha1);
  Out += ";alpha2=";
  appendDouble(Out, Spec.Alpha2);
  Out += ";max-iterations=" + std::to_string(Spec.MaxIterations);
  Out += ";lambda-opt=" + std::to_string(Spec.LambdaOptLevel);
  // SplitJobs is deliberately absent: split outcomes are byte-identical
  // for every worker count, so two specs differing only in split-jobs are
  // the same query and must share one cache entry.
  Out += ";split-depth=" + std::to_string(Spec.SplitDepth);
  Out += ";attack=";
  Out += Spec.Attack ? '1' : '0';
  Out += ";seed=" + std::to_string(Spec.AttackSeed) + ";";
  return Out;
}

std::string craft::serveCacheKey(const VerificationSpec &Spec,
                                 uint64_t ModelHash) {
  std::string Key = canonicalSpec(Spec);
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(ModelHash));
  Key += "model=";
  Key += Buf;
  Key += ';';
  return Key;
}

uint64_t craft::serveAttackSeed(uint64_t BaseSeed,
                                const std::string &CacheKey) {
  // Route the content hash through the same splitmix64 stream the batch
  // driver uses, so serve seeds and batch seeds share one generator
  // family but can never collide by construction accident.
  return taskSeed(BaseSeed, fnv1a64(CacheKey.data(), CacheKey.size()));
}
