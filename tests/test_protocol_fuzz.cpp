//===- tests/test_protocol_fuzz.cpp - Malformed-frame protocol fuzzing ----===//
//
// Deterministic fuzz coverage for the serve wire protocol: every strict
// prefix and every single-byte mutation of a representative request
// corpus must be handled without crashing, hanging, or silently
// accepting garbage — a parse failure always carries a non-empty error,
// and anything the decoder does accept must survive an
// encode -> decode -> encode fixpoint.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"
#include "serve/Server.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace craft;
using namespace craft::serve;
using json::Value;

namespace {

/// Representative request lines: every method, escapes, unicode, the
/// optional fields (cache, deadline_ms), and a response for good
/// measure — mutants of responses also hit the server's re-parse path.
std::vector<std::string> corpus() {
  std::vector<std::string> Lines;
  Request Verify;
  Verify.Id = 17;
  Verify.Method = "verify";
  Verify.SpecText = "model \"/tmp/m.bin\"\nepsilon 0.02\n# tab\t\"quote\"";
  Verify.UseCache = false;
  Verify.DeadlineMs = 1500.25;
  Lines.push_back(encodeRequest(Verify));

  Request Unicode;
  Unicode.Id = 9000000000000000000LL;
  Unicode.Method = "verify";
  Unicode.SpecText = "model caf\xc3\xa9.bin\nepsilon 0.1\n\xf0\x9f\x98\x80";
  Lines.push_back(encodeRequest(Unicode));

  for (const char *Method : {"info", "metrics", "ping", "drain", "shutdown"}) {
    Request Req;
    Req.Id = 3;
    Req.Method = Method;
    Lines.push_back(encodeRequest(Req));
  }

  Lines.push_back(makeErrorResponse(42, "bad \"frame\"\n\t", {"d1", "d2"},
                                    "overloaded")
                      .serialize());
  return Lines;
}

/// Fields that define request identity for the fixpoint check.
std::string requestKey(const Request &R) {
  return std::to_string(R.Id) + "|" + R.Method + "|" + R.SpecText + "|" +
         (R.UseCache ? "1" : "0") + "|" + std::to_string(R.DeadlineMs);
}

/// The mutation alphabet: structural JSON bytes, escapes, NUL, high bit.
const unsigned char MutationBytes[] = {0x00, '"',  '\\', '{',  '}',
                                       '[',  ']',  ',',  ':',  'a',
                                       '0',  ' ',  0x7f, 0xff};

} // namespace

TEST(ProtocolFuzzTest, StrictPrefixesNeverDecodeAndAlwaysExplain) {
  for (const std::string &Line : corpus()) {
    for (size_t Cut = 0; Cut < Line.size(); ++Cut) {
      const std::string Prefix = Line.substr(0, Cut);
      std::string Error;
      std::optional<Request> Req = decodeRequest(Prefix, Error);
      EXPECT_FALSE(Req.has_value())
          << "prefix of length " << Cut << " of: " << Line;
      EXPECT_FALSE(Error.empty())
          << "parse failures must say why (prefix " << Cut << " of "
          << Line << ")";
    }
  }
}

TEST(ProtocolFuzzTest, SingleByteMutantsNeverCrashAndAcceptedOnesRoundTrip) {
  size_t Accepted = 0, Rejected = 0;
  for (const std::string &Line : corpus()) {
    for (size_t Pos = 0; Pos < Line.size(); ++Pos) {
      for (unsigned char Byte : MutationBytes) {
        std::string Mutant = Line;
        if (Mutant[Pos] == static_cast<char>(Byte))
          continue;
        Mutant[Pos] = static_cast<char>(Byte);
        std::string Error;
        std::optional<Request> Req = decodeRequest(Mutant, Error);
        if (!Req) {
          EXPECT_FALSE(Error.empty()) << "mutant of: " << Line;
          ++Rejected;
          continue;
        }
        // The decoder accepted the mutant: it must describe a coherent
        // request that survives re-encoding bit-for-bit.
        ++Accepted;
        std::string Error2;
        std::optional<Request> Again =
            decodeRequest(encodeRequest(*Req), Error2);
        ASSERT_TRUE(Again.has_value())
            << "decoded mutant failed to re-decode: " << Error2
            << "\nmutant: " << Mutant;
        EXPECT_EQ(requestKey(*Req), requestKey(*Again))
            << "mutant: " << Mutant;
      }
    }
  }
  // Sanity: the corpus actually exercised both paths.
  EXPECT_GT(Rejected, 0u);
  EXPECT_GT(Accepted, 0u) << "mutation alphabet never produced a valid "
                             "variant; corpus too rigid";
}

TEST(ProtocolFuzzTest, ServerAnswersEveryMutantWithoutCrashing) {
  // The full line handler (decode + dispatch + envelope) on hostile
  // frames: the response must always be parseable JSON with ok:false or
  // a genuine result — never an empty line, never a crash. Methods with
  // side effects (verify/shutdown/drain) are excluded; the decode layer
  // they share is already covered above.
  ServerOptions SO;
  SO.Port = -1;
  Server Daemon(SO);
  Request Ping;
  Ping.Id = 5;
  Ping.Method = "ping";
  const std::string Line = encodeRequest(Ping);
  for (size_t Pos = 0; Pos < Line.size(); ++Pos) {
    for (unsigned char Byte : MutationBytes) {
      std::string Mutant = Line;
      Mutant[Pos] = static_cast<char>(Byte);
      Server::LineOutcome Act;
      const std::string Response = Daemon.handleLine(Mutant, Act);
      ASSERT_FALSE(Response.empty()) << "mutant: " << Mutant;
      std::string Error;
      std::optional<Value> Doc = json::parse(Response, Error);
      ASSERT_TRUE(Doc.has_value())
          << "unparseable response " << Response << " to mutant "
          << Mutant;
      EXPECT_FALSE(Act.ShutdownRequested)
          << "a mutated ping must never shut the daemon down: " << Mutant;
      EXPECT_FALSE(Act.DrainRequested) << Mutant;
    }
  }
}
