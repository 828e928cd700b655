//===- tools/craft_lint/Lint.cpp - Repo invariant checker -----------------===//
//
// Lexer, suppression parser, rule engine, and CLI driver for craft-lint.
// Deliberately self-contained (no dependency on the craft library): the
// linter must build and run even when the library it polices does not.
//
//===----------------------------------------------------------------------===//

#include "Lint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

using namespace craft;
using namespace craft::lint;

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

namespace {

enum class Tok {
  Ident,   ///< Identifier or keyword.
  Number,  ///< Numeric literal (pp-number; good enough here).
  String,  ///< String literal, raw strings included.
  Char,    ///< Character literal.
  Punct,   ///< Punctuation; `::` and `->` are single tokens.
  Comment, ///< // or /* */ comment, text without delimiters.
  PP,      ///< Whole preprocessor line (continuations folded).
};

struct Token {
  Tok Kind;
  std::string Text;
  int Line = 1; ///< 1-based line of the token's first character.
  int Col = 1;  ///< 1-based column.
};

bool isIdentStart(char C) {
  return std::isalpha(static_cast<unsigned char>(C)) || C == '_';
}
bool isIdentChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
}

/// Lexes \p Src into tokens. Comments are kept (the suppression parser
/// reads them); string/char literal *contents* are discarded so forbidden
/// names inside literals never match a rule.
std::vector<Token> lex(const std::string &Src) {
  std::vector<Token> Toks;
  size_t I = 0, N = Src.size();
  int Line = 1, Col = 1;
  auto advance = [&](size_t K) {
    for (size_t J = 0; J < K && I < N; ++J, ++I) {
      if (Src[I] == '\n') {
        ++Line;
        Col = 1;
      } else {
        ++Col;
      }
    }
  };
  auto atLineStart = [&] {
    // Only whitespace between the last newline and I?
    size_t J = I;
    while (J > 0 && Src[J - 1] != '\n') {
      if (!std::isspace(static_cast<unsigned char>(Src[J - 1])))
        return false;
      --J;
    }
    return true;
  };

  while (I < N) {
    char C = Src[I];
    int TLine = Line, TCol = Col;

    if (std::isspace(static_cast<unsigned char>(C))) {
      advance(1);
      continue;
    }

    // Preprocessor line: '#' first on its line; backslash continuations
    // and line comments are folded into one PP token.
    if (C == '#' && atLineStart()) {
      std::string Text;
      while (I < N) {
        if (Src[I] == '\\' && I + 1 < N && Src[I + 1] == '\n') {
          Text += ' ';
          advance(2);
          continue;
        }
        if (Src[I] == '\n')
          break;
        Text += Src[I];
        advance(1);
      }
      Toks.push_back({Tok::PP, Text, TLine, TCol});
      continue;
    }

    // Comments.
    if (C == '/' && I + 1 < N && Src[I + 1] == '/') {
      advance(2);
      std::string Text;
      while (I < N && Src[I] != '\n') {
        Text += Src[I];
        advance(1);
      }
      Toks.push_back({Tok::Comment, Text, TLine, TCol});
      continue;
    }
    if (C == '/' && I + 1 < N && Src[I + 1] == '*') {
      advance(2);
      std::string Text;
      while (I + 1 < N && !(Src[I] == '*' && Src[I + 1] == '/')) {
        Text += Src[I];
        advance(1);
      }
      advance(2);
      Toks.push_back({Tok::Comment, Text, TLine, TCol});
      continue;
    }

    // Raw string literal R"delim( ... )delim".
    if (C == 'R' && I + 1 < N && Src[I + 1] == '"') {
      size_t DelimBegin = I + 2;
      size_t Paren = Src.find('(', DelimBegin);
      if (Paren != std::string::npos && Paren - DelimBegin <= 16) {
        std::string Close =
            ")" + Src.substr(DelimBegin, Paren - DelimBegin) + "\"";
        size_t End = Src.find(Close, Paren + 1);
        size_t Stop = End == std::string::npos ? N : End + Close.size();
        advance(Stop - I);
        Toks.push_back({Tok::String, "", TLine, TCol});
        continue;
      }
    }

    // Ordinary string / char literals (prefixes like u8 lex as an
    // identifier first, which is harmless for our rules).
    if (C == '"' || C == '\'') {
      char Quote = C;
      advance(1);
      while (I < N && Src[I] != Quote) {
        if (Src[I] == '\\' && I + 1 < N)
          advance(2);
        else if (Src[I] == '\n')
          break; // Unterminated; resync at the newline.
        else
          advance(1);
      }
      advance(1);
      Toks.push_back(
          {Quote == '"' ? Tok::String : Tok::Char, "", TLine, TCol});
      continue;
    }

    if (isIdentStart(C)) {
      std::string Text;
      while (I < N && isIdentChar(Src[I])) {
        Text += Src[I];
        advance(1);
      }
      Toks.push_back({Tok::Ident, Text, TLine, TCol});
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(C))) {
      std::string Text;
      while (I < N && (isIdentChar(Src[I]) || Src[I] == '.' ||
                       ((Src[I] == '+' || Src[I] == '-') && !Text.empty() &&
                        (Text.back() == 'e' || Text.back() == 'E' ||
                         Text.back() == 'p' || Text.back() == 'P')))) {
        Text += Src[I];
        advance(1);
      }
      Toks.push_back({Tok::Number, Text, TLine, TCol});
      continue;
    }

    // Punctuation; `::` and `->` matter to the rules, so lex them whole.
    if (C == ':' && I + 1 < N && Src[I + 1] == ':') {
      Toks.push_back({Tok::Punct, "::", TLine, TCol});
      advance(2);
      continue;
    }
    if (C == '-' && I + 1 < N && Src[I + 1] == '>') {
      Toks.push_back({Tok::Punct, "->", TLine, TCol});
      advance(2);
      continue;
    }
    Toks.push_back({Tok::Punct, std::string(1, C), TLine, TCol});
    advance(1);
  }
  return Toks;
}

//===----------------------------------------------------------------------===//
// Suppressions
//===----------------------------------------------------------------------===//

/// One parsed `craft-lint: allow(...)` / `allow-file(...)` comment.
struct Suppression {
  std::set<std::string> Rules;
  bool FileWide = false;
  int Line = 0; ///< Line the comment starts on.
  int EndLine = 0;
  std::string Justification;
  bool Used = false;
};

std::string trimmed(const std::string &S) {
  size_t B = S.find_first_not_of(" \t");
  if (B == std::string::npos)
    return "";
  size_t E = S.find_last_not_of(" \t");
  return S.substr(B, E - B + 1);
}

/// Parses suppressions out of the comment tokens. A directive must START
/// the comment (after the doxygen slash run and whitespace) — prose that
/// merely mentions the marker, and indented documentation examples, never
/// parse as directives. Malformed directives (unparseable rule list,
/// unknown rule id, empty justification) are reported via \p Emit as
/// `lint-suppression` diagnostics so a typo can never silently disable a
/// rule.
template <typename EmitFn>
std::vector<Suppression> collectSuppressions(const std::vector<Token> &Toks,
                                             const EmitFn &Emit) {
  const std::string Marker = "craft-lint:";
  std::vector<Suppression> Out;
  for (size_t TI = 0; TI < Toks.size(); ++TI) {
    const Token &T = Toks[TI];
    if (T.Kind != Tok::Comment)
      continue;
    // Strip the doxygen continuation (`///` lexes as text starting "/")
    // and leading whitespace — one slash run only, so an example shown
    // inside a doc comment (`///   // craft-lint: ...`) stays inert.
    size_t Pos = 0;
    while (Pos < T.Text.size() && (T.Text[Pos] == '/' || T.Text[Pos] == '*'))
      ++Pos;
    while (Pos < T.Text.size() &&
           std::isspace(static_cast<unsigned char>(T.Text[Pos])))
      ++Pos;
    if (T.Text.compare(Pos, Marker.size(), Marker) != 0)
      continue;
    std::string Rest = T.Text.substr(Pos + Marker.size());
    std::string Directive = trimmed(Rest);
    bool FileWide = false;
    const std::string AllowFile = "allow-file(", Allow = "allow(";
    size_t Open;
    if (Directive.rfind(AllowFile, 0) == 0) {
      FileWide = true;
      Open = AllowFile.size();
    } else if (Directive.rfind(Allow, 0) == 0) {
      Open = Allow.size();
    } else {
      Emit(T.Line, T.Col, "lint-suppression",
           "unrecognized craft-lint directive (expected allow(...) or "
           "allow-file(...))");
      continue;
    }
    size_t Close = Directive.find(')', Open);
    if (Close == std::string::npos) {
      Emit(T.Line, T.Col, "lint-suppression",
           "unterminated rule list in craft-lint suppression");
      continue;
    }

    Suppression S;
    S.FileWide = FileWide;
    S.Line = T.Line;
    S.EndLine =
        T.Line + static_cast<int>(std::count(T.Text.begin(), T.Text.end(),
                                             '\n'));
    // A `//` comment block wrapping over several lines lexes as one token
    // per line; fold the continuation lines into this suppression's
    // coverage (and justification) so a wrapped justification still
    // shields the line below the block.
    std::string Continuation;
    for (size_t J = TI + 1; J < Toks.size(); ++J) {
      if (Toks[J].Kind != Tok::Comment || Toks[J].Line != S.EndLine + 1)
        break;
      std::string Cont = trimmed(Toks[J].Text);
      size_t P = 0;
      while (P < Cont.size() && (Cont[P] == '/' || Cont[P] == '*'))
        ++P;
      while (P < Cont.size() &&
             std::isspace(static_cast<unsigned char>(Cont[P])))
        ++P;
      if (Cont.compare(P, Marker.size(), Marker) == 0)
        break; // A new directive starts its own block.
      S.EndLine = Toks[J].Line;
      // Two appends, not `+= " " + ...`: GCC 12's -Wrestrict misfires on
      // const char* + string&& chains (same workaround as bench_fig2).
      Continuation += ' ';
      Continuation += trimmed(Cont.substr(P));
      TI = J;
    }
    std::stringstream List(Directive.substr(Open, Close - Open));
    std::string Rule;
    bool Ok = true;
    while (std::getline(List, Rule, ',')) {
      Rule = trimmed(Rule);
      bool Known = false;
      for (const RuleInfo &R : allRules())
        Known = Known || R.Id == Rule;
      if (!Known) {
        Emit(T.Line, T.Col, "lint-suppression",
             "suppression names unknown rule '" + Rule + "'");
        Ok = false;
        break;
      }
      S.Rules.insert(Rule);
    }
    if (!Ok || S.Rules.empty()) {
      if (Ok)
        Emit(T.Line, T.Col, "lint-suppression",
             "suppression with an empty rule list");
      continue;
    }

    // Justification: everything after ')', stripped of separator dashes.
    std::string Just = Directive.substr(Close + 1);
    size_t B = Just.find_first_not_of(" \t:-");
    // Tolerate UTF-8 em/en dashes as the separator.
    while (B != std::string::npos && B + 2 < Just.size() &&
           static_cast<unsigned char>(Just[B]) == 0xE2 &&
           static_cast<unsigned char>(Just[B + 1]) == 0x80) {
      B = Just.find_first_not_of(" \t:-", B + 3);
    }
    S.Justification = B == std::string::npos ? "" : trimmed(Just.substr(B));
    S.Justification = trimmed(S.Justification + Continuation);
    if (S.Justification.empty()) {
      Emit(T.Line, T.Col, "lint-suppression",
           "suppression without a justification (write `craft-lint: "
           "allow(rule) — why this is sound here`)");
      continue;
    }
    Out.push_back(std::move(S));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Path scoping
//===----------------------------------------------------------------------===//

bool startsWith(const std::string &S, const std::string &Prefix) {
  return S.rfind(Prefix, 0) == 0;
}

std::string baseName(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  return Slash == std::string::npos ? Path : Path.substr(Slash + 1);
}

/// Where a file sits in the repo, for rule scoping.
struct FileScope {
  bool InSrc = false;     ///< src/** — the shipped library.
  bool InTools = false;   ///< tools/** — CLI + this linter.
  bool InSupport = false; ///< src/support/**.
  bool IsRngTU = false;   ///< src/support/Rng.{h,cpp}.
  bool IsTimerTU = false; ///< src/support/Timer.h.
  /// src/support/Telemetry.cpp — the telemetry layer's one clock
  /// (monotonicNanos); its header stays chrono-free by design.
  bool IsTelemetryTU = false;
  bool IsRoundedTU = false; ///< src/support/RoundedInterval.h.
  bool IsIsaKernelTU = false; ///< Per-ISA kernel TU (owns its -m flags).
  /// src/linalg/Kernels* (hot-path tier): the dispatch layer and the
  /// per-ISA TUs — the Kernels name prefix keeps future kernel files in
  /// scope by construction.
  bool IsKernelFile = false;
  bool InResultPath = false;  ///< core/domains/tool/serve result paths.
};

FileScope classify(const std::string &Rel) {
  FileScope FS;
  FS.InSrc = startsWith(Rel, "src/");
  FS.InTools = startsWith(Rel, "tools/");
  FS.InSupport = startsWith(Rel, "src/support/");
  FS.IsRngTU = Rel == "src/support/Rng.h" || Rel == "src/support/Rng.cpp";
  FS.IsTimerTU = Rel == "src/support/Timer.h";
  FS.IsTelemetryTU = Rel == "src/support/Telemetry.cpp";
  FS.IsRoundedTU = Rel == "src/support/RoundedInterval.h";
  // Exactly the three TUs whose -ffp-contract=off builds may spell FMA
  // out; the dispatch layer (Kernels.cpp) stays un-exempt — it only
  // routes and tiles calls into the per-ISA kernels.
  FS.IsIsaKernelTU = Rel == "src/linalg/KernelsScalar.cpp" ||
                     Rel == "src/linalg/KernelsAvx2.cpp" ||
                     Rel == "src/linalg/KernelsAvx512.cpp";
  FS.IsKernelFile =
      startsWith(Rel, "src/linalg/") && startsWith(baseName(Rel), "Kernels");
  FS.InResultPath = startsWith(Rel, "src/core/") ||
                    startsWith(Rel, "src/domains/") ||
                    startsWith(Rel, "src/tool/") ||
                    startsWith(Rel, "src/serve/");
  return FS;
}

//===----------------------------------------------------------------------===//
// Rule engine helpers
//===----------------------------------------------------------------------===//

bool tokenIs(const std::vector<Token> &T, size_t I, Tok K,
             const char *Text) {
  return I < T.size() && T[I].Kind == K && T[I].Text == Text;
}

/// True when token I is the identifier \p Name used as `std::Name` or a
/// bare `Name` (but not `foo::Name` for a foreign namespace `foo`).
bool isStdOrBare(const std::vector<Token> &T, size_t I, const char *Name) {
  if (!(T[I].Kind == Tok::Ident && T[I].Text == Name))
    return false;
  if (I >= 2 && tokenIs(T, I - 1, Tok::Punct, "::"))
    return T[I - 2].Kind == Tok::Ident && T[I - 2].Text == "std";
  return !(I >= 1 && tokenIs(T, I - 1, Tok::Punct, "::"));
}

/// True when the PP token text includes \p Header as `<Header>` or
/// `"Header"`.
bool ppIncludes(const std::string &PP, const std::string &Header) {
  if (PP.find("include") == std::string::npos)
    return false;
  return PP.find("<" + Header + ">") != std::string::npos ||
         PP.find("\"" + Header + "\"") != std::string::npos;
}

/// Names of variables declared in this file with an unordered_map /
/// unordered_set type (lexical heuristic: the last plain identifier after
/// the balanced template argument list and before a declarator
/// terminator). Also matches `auto &X : ...` aliasing — not needed; kept
/// simple on purpose.
std::set<std::string>
unorderedDeclNames(const std::vector<Token> &T) {
  std::set<std::string> Names;
  for (size_t I = 0; I < T.size(); ++I) {
    if (T[I].Kind != Tok::Ident ||
        (T[I].Text != "unordered_map" && T[I].Text != "unordered_set"))
      continue;
    size_t J = I + 1;
    if (J < T.size() && tokenIs(T, J, Tok::Punct, "<")) {
      int Depth = 0;
      for (; J < T.size(); ++J) {
        if (T[J].Kind != Tok::Punct)
          continue;
        if (T[J].Text == "<")
          ++Depth;
        else if (T[J].Text == ">" && --Depth == 0) {
          ++J;
          break;
        }
      }
    }
    // Collect `* & :: ident` runs; the last identifier before a
    // terminator is the declared name.
    std::string Last;
    for (; J < T.size(); ++J) {
      if (T[J].Kind == Tok::Ident) {
        Last = T[J].Text;
        continue;
      }
      if (T[J].Kind == Tok::Punct &&
          (T[J].Text == "*" || T[J].Text == "&" || T[J].Text == "::"))
        continue;
      break;
    }
    bool Terminated =
        J < T.size() && T[J].Kind == Tok::Punct &&
        (T[J].Text == ";" || T[J].Text == "=" || T[J].Text == "{" ||
         T[J].Text == "," || T[J].Text == ")");
    if (Terminated && !Last.empty())
      Names.insert(Last);
  }
  return Names;
}

} // namespace

//===----------------------------------------------------------------------===//
// Rule set
//===----------------------------------------------------------------------===//

const std::vector<RuleInfo> &craft::lint::allRules() {
  static const std::vector<RuleInfo> Rules = {
      {"det-seed", Severity::Error,
       "raw randomness (rand, random_device, mt19937, <random>, time(...)"
       " seeds) outside support/Rng",
       "all randomness flows through the deterministic taskSeed stream, so "
       "outcomes are byte-identical for any worker count"},
      {"det-time", Severity::Error,
       "std::chrono / clock calls outside support/Timer and "
       "support/Telemetry.cpp (src+tools scope)",
       "wall-clock values must never leak into seeds, iteration order, or "
       "result payloads"},
      {"det-unordered-iter", Severity::Error,
       "iteration over unordered containers in core/domains/tool/serve",
       "hash-table iteration order is implementation-defined; result paths "
       "must use deterministically ordered traversals"},
      {"sound-fma", Severity::Error,
       "std::fma / __builtin_fma outside the per-ISA kernel TUs",
       "a fused mul+add rounds once, not twice, silently changing results "
       "across backends; kernel TUs compile with -ffp-contract=off. The "
       "dispatch layer (Kernels.cpp) is NOT exempt: it routes calls into "
       "the per-ISA kernels and must never introduce contraction of its "
       "own"},
      {"sound-fastmath", Severity::Error,
       "fast-math / FP_CONTRACT pragmas or attributes anywhere",
       "value-changing FP optimizations break the outward-rounding "
       "soundness argument of support/RoundedInterval"},
      {"sound-rounding", Severity::Error,
       "rounding-mode / nextafter primitives outside "
       "support/RoundedInterval.h (src+tools scope)",
       "directed rounding is centralized so the certificate checker's "
       "bracketing proof holds everywhere it is used"},
      {"hot-alloc", Severity::Error,
       "new / malloc / std::vector / std::string in kernel function bodies",
       "the kernel tier is allocation-free by contract; scratch comes from "
       "the caller-owned Workspace arena. Covers every src/linalg/Kernels* "
       "file, including the dispatch and tiling layer (Kernels.cpp)"},
      {"conc-detach", Severity::Error, "std::thread::detach anywhere",
       "detached threads outlive their owners and race teardown; every "
       "thread in this repo is joined"},
      {"conc-volatile", Severity::Error,
       "volatile used where synchronization is meant",
       "volatile is not a memory fence; cross-thread state uses std::atomic "
       "or a mutex"},
      {"conc-thread", Severity::Error,
       "naked std::thread outside src/support (src scope)",
       "thread lifecycle is owned by the support layer (ThreadPool) or "
       "carries an explicit justified suppression at the spawn site"},
      {"lint-suppression", Severity::Error,
       "malformed or unjustified craft-lint suppression",
       "a suppression is an auditable waiver; without a justification it "
       "is a silent hole in the invariant"},
      {"unused-suppression", Severity::Warning,
       "suppression that matched no diagnostic",
       "stale waivers hide real regressions when the code they covered "
       "moves"},
  };
  return Rules;
}

//===----------------------------------------------------------------------===//
// Engine
//===----------------------------------------------------------------------===//

size_t LintResult::unsuppressedErrors() const {
  size_t N = 0;
  for (const Diagnostic &D : Diagnostics)
    if (!D.Suppressed && D.Sev == Severity::Error)
      ++N;
  return N;
}

size_t LintResult::suppressedCount() const {
  size_t N = 0;
  for (const Diagnostic &D : Diagnostics)
    if (D.Suppressed)
      ++N;
  return N;
}

void craft::lint::lintBuffer(const std::string &RelPath,
                             const std::string &DisplayPath,
                             const std::string &Contents,
                             const std::vector<std::string> &RuleFilter,
                             LintResult &Result) {
  const FileScope FS = classify(RelPath);
  const std::vector<Token> T = lex(Contents);

  auto ruleEnabled = [&RuleFilter](const std::string &Id) {
    return RuleFilter.empty() ||
           std::find(RuleFilter.begin(), RuleFilter.end(), Id) !=
               RuleFilter.end();
  };

  std::vector<Diagnostic> Raw;
  auto emit = [&](int Line, int Col, const std::string &Rule,
                  const std::string &Message) {
    if (!ruleEnabled(Rule))
      return;
    Severity Sev = Severity::Error;
    for (const RuleInfo &R : allRules())
      if (R.Id == Rule)
        Sev = R.Sev;
    Raw.push_back({DisplayPath, Line, Col, Rule, Sev, Message, false, ""});
  };

  // Suppressions first: their own diagnostics (lint-suppression) are
  // unconditional — a broken waiver must never be waivable by itself.
  std::vector<Suppression> Sups = collectSuppressions(T, emit);

  //-- det-seed ------------------------------------------------------------
  if (!FS.IsRngTU) {
    for (size_t I = 0; I < T.size(); ++I) {
      if (T[I].Kind == Tok::PP) {
        if (ppIncludes(T[I].Text, "random") || ppIncludes(T[I].Text, "ctime"))
          emit(T[I].Line, T[I].Col, "det-seed",
               "include of a raw randomness/time header; seed through "
               "support/Rng and taskSeed instead");
        continue;
      }
      if (T[I].Kind != Tok::Ident)
        continue;
      const std::string &Id = T[I].Text;
      bool RandName = Id == "rand" || Id == "srand" || Id == "drand48" ||
                      Id == "lrand48" || Id == "random_device" ||
                      Id == "mt19937" || Id == "mt19937_64" ||
                      Id == "minstd_rand" || Id == "default_random_engine";
      bool TimeCall = Id == "time" && I + 1 < T.size() &&
                      tokenIs(T, I + 1, Tok::Punct, "(") &&
                      !(I >= 1 && (tokenIs(T, I - 1, Tok::Punct, ".") ||
                                   tokenIs(T, I - 1, Tok::Punct, "->")));
      if (RandName || TimeCall)
        emit(T[I].Line, T[I].Col, "det-seed",
             "'" + Id +
                 "' is a nondeterministic seed source; derive seeds from "
                 "the taskSeed stream (support/ThreadPool.h)");
    }
  }

  //-- det-time ------------------------------------------------------------
  if ((FS.InSrc || FS.InTools) && !FS.IsTimerTU && !FS.IsTelemetryTU) {
    for (size_t I = 0; I < T.size(); ++I) {
      if (T[I].Kind == Tok::PP) {
        if (ppIncludes(T[I].Text, "chrono"))
          emit(T[I].Line, T[I].Col, "det-time",
               "include of <chrono> outside the sanctioned timing TUs "
               "(support/Timer.h, support/Telemetry.cpp); wrap timing in "
               "WallTimer or telemetry spans, or justify the use inline");
        continue;
      }
      if (T[I].Kind != Tok::Ident)
        continue;
      bool Chrono = T[I].Text == "chrono" && I >= 2 &&
                    tokenIs(T, I - 1, Tok::Punct, "::") &&
                    T[I - 2].Text == "std";
      bool ClockCall =
          (T[I].Text == "gettimeofday" || T[I].Text == "clock_gettime") ||
          (T[I].Text == "clock" && I + 1 < T.size() &&
           tokenIs(T, I + 1, Tok::Punct, "(") &&
           !(I >= 1 && (tokenIs(T, I - 1, Tok::Punct, ".") ||
                        tokenIs(T, I - 1, Tok::Punct, "->") ||
                        tokenIs(T, I - 1, Tok::Punct, "::"))));
      if (Chrono || ClockCall)
        emit(T[I].Line, T[I].Col, "det-time",
             "direct wall-clock access outside the sanctioned timing TUs "
             "(support/Timer.h, support/Telemetry.cpp)");
    }
  }

  //-- det-unordered-iter --------------------------------------------------
  if (FS.InResultPath) {
    const std::set<std::string> Unordered = unorderedDeclNames(T);
    if (!Unordered.empty()) {
      for (size_t I = 0; I < T.size(); ++I) {
        // `for ( ... : NAME )` — range-for whose range names a container.
        if (tokenIs(T, I, Tok::Ident, "for") && I + 1 < T.size() &&
            tokenIs(T, I + 1, Tok::Punct, "(")) {
          int Depth = 0;
          size_t ColonAt = 0;
          for (size_t J = I + 1; J < T.size(); ++J) {
            if (T[J].Kind != Tok::Punct)
              continue;
            if (T[J].Text == "(")
              ++Depth;
            else if (T[J].Text == ")") {
              if (--Depth == 0) {
                if (ColonAt) {
                  for (size_t K = ColonAt + 1; K < J; ++K)
                    if (T[K].Kind == Tok::Ident &&
                        Unordered.count(T[K].Text))
                      emit(T[K].Line, T[K].Col, "det-unordered-iter",
                           "range-for over unordered container '" +
                               T[K].Text +
                               "'; iteration order is nondeterministic");
                }
                break;
              }
            } else if (T[J].Text == ":" && Depth == 1 && !ColonAt) {
              ColonAt = J;
            }
          }
        }
        // NAME.begin() / NAME->begin() and friends.
        if (T[I].Kind == Tok::Ident && Unordered.count(T[I].Text) &&
            I + 2 < T.size() &&
            (tokenIs(T, I + 1, Tok::Punct, ".") ||
             tokenIs(T, I + 1, Tok::Punct, "->")) &&
            T[I + 2].Kind == Tok::Ident &&
            (T[I + 2].Text == "begin" || T[I + 2].Text == "end" ||
             T[I + 2].Text == "cbegin" || T[I + 2].Text == "cend"))
          emit(T[I].Line, T[I].Col, "det-unordered-iter",
               "iterator walk of unordered container '" + T[I].Text + "'");
      }
    }
  }

  //-- sound-fma -----------------------------------------------------------
  if (!FS.IsIsaKernelTU) {
    for (size_t I = 0; I < T.size(); ++I) {
      if (T[I].Kind != Tok::Ident)
        continue;
      const std::string &Id = T[I].Text;
      if (((Id == "fma" || Id == "fmaf" || Id == "fmal") &&
           isStdOrBare(T, I, Id.c_str()) && I + 1 < T.size() &&
           tokenIs(T, I + 1, Tok::Punct, "(")) ||
          startsWith(Id, "__builtin_fma"))
        emit(T[I].Line, T[I].Col, "sound-fma",
             "fused multiply-add outside the per-ISA kernel TUs rounds "
             "once instead of twice and diverges across backends");
    }
  }

  //-- sound-fastmath ------------------------------------------------------
  for (size_t I = 0; I < T.size(); ++I) {
    bool Hit = false;
    if (T[I].Kind == Tok::PP) {
      const std::string &P = T[I].Text;
      Hit = (P.find("FP_CONTRACT") != std::string::npos &&
             P.find("OFF") == std::string::npos) ||
            P.find("fast-math") != std::string::npos ||
            P.find("ffast-math") != std::string::npos ||
            P.find("float_control") != std::string::npos;
    } else if (T[I].Kind == Tok::String || T[I].Kind == Tok::Ident) {
      // __attribute__((optimize("-ffast-math"))) — the literal is
      // dropped by the lexer, so match the attribute identifier plus any
      // optimize token instead.
      Hit = T[I].Kind == Tok::Ident && T[I].Text == "__optimize__";
    }
    if (Hit)
      emit(T[I].Line, T[I].Col, "sound-fastmath",
           "value-changing floating-point mode; forbidden everywhere "
           "(even kernel TUs compile with -ffp-contract=off)");
  }

  //-- sound-rounding ------------------------------------------------------
  if ((FS.InSrc || FS.InTools) && !FS.IsRoundedTU) {
    for (size_t I = 0; I < T.size(); ++I) {
      if (T[I].Kind == Tok::PP) {
        if (ppIncludes(T[I].Text, "cfenv") || ppIncludes(T[I].Text, "fenv.h"))
          emit(T[I].Line, T[I].Col, "sound-rounding",
               "include of the FP-environment header outside "
               "support/RoundedInterval.h");
        continue;
      }
      if (T[I].Kind != Tok::Ident)
        continue;
      const std::string &Id = T[I].Text;
      if (Id == "fesetround" || Id == "fegetround" || Id == "fesetenv" ||
          Id == "feupdateenv" || Id == "feholdexcept" ||
          Id == "FE_DOWNWARD" || Id == "FE_UPWARD" || Id == "FE_TONEAREST" ||
          Id == "FE_TOWARDZERO" || Id == "nextafter" || Id == "nexttoward")
        emit(T[I].Line, T[I].Col, "sound-rounding",
             "'" + Id +
                 "' outside support/RoundedInterval.h; use roundUp/"
                 "roundDown so the bracketing proof stays centralized");
    }
  }

  //-- hot-alloc -----------------------------------------------------------
  if (FS.IsKernelFile) {
    // Brace depth that ignores namespace braces: depth >= 1 means "inside
    // a function or class body" — close enough for the kernel TUs, which
    // hold only free functions.
    std::vector<bool> NamespaceBrace;
    int Depth = 0;
    for (size_t I = 0; I < T.size(); ++I) {
      if (tokenIs(T, I, Tok::Punct, "{")) {
        bool IsNs = false;
        for (size_t B = I; B-- > 0;) {
          if (T[B].Kind == Tok::Comment || T[B].Kind == Tok::PP)
            continue;
          if (T[B].Kind == Tok::Ident) {
            if (T[B].Text == "namespace") {
              IsNs = true;
              break;
            }
            continue; // `namespace foo {` — keep looking one back.
          }
          break;
        }
        NamespaceBrace.push_back(IsNs);
        if (!IsNs)
          ++Depth;
        continue;
      }
      if (tokenIs(T, I, Tok::Punct, "}")) {
        if (!NamespaceBrace.empty()) {
          if (!NamespaceBrace.back() && Depth > 0)
            --Depth;
          NamespaceBrace.pop_back();
        }
        continue;
      }
      if (Depth < 1 || T[I].Kind != Tok::Ident)
        continue;
      const std::string &Id = T[I].Text;
      bool Alloc = Id == "new" || Id == "malloc" || Id == "calloc" ||
                   Id == "realloc";
      bool Container = (Id == "vector" || Id == "string") &&
                       isStdOrBare(T, I, Id.c_str()) && I >= 1 &&
                       tokenIs(T, I - 1, Tok::Punct, "::");
      if (Alloc || Container)
        emit(T[I].Line, T[I].Col, "hot-alloc",
             "'" + Id +
                 "' in a kernel function body; the kernel tier is "
                 "allocation-free — take scratch from the Workspace arena");
    }
  }

  //-- conc-detach ---------------------------------------------------------
  for (size_t I = 1; I < T.size(); ++I)
    if (T[I].Kind == Tok::Ident && T[I].Text == "detach" &&
        (tokenIs(T, I - 1, Tok::Punct, ".") ||
         tokenIs(T, I - 1, Tok::Punct, "->")))
      emit(T[I].Line, T[I].Col, "conc-detach",
           "detached threads race teardown; join every thread");

  //-- conc-volatile -------------------------------------------------------
  for (size_t I = 0; I < T.size(); ++I)
    if (T[I].Kind == Tok::Ident && T[I].Text == "volatile")
      emit(T[I].Line, T[I].Col, "conc-volatile",
           "volatile is not synchronization; use std::atomic or a mutex");

  //-- conc-thread ---------------------------------------------------------
  if (FS.InSrc && !FS.InSupport) {
    for (size_t I = 2; I < T.size(); ++I)
      if (T[I].Kind == Tok::Ident && T[I].Text == "thread" &&
          tokenIs(T, I - 1, Tok::Punct, "::") &&
          T[I - 2].Kind == Tok::Ident && T[I - 2].Text == "std" &&
          !(I + 1 < T.size() && tokenIs(T, I + 1, Tok::Punct, "::")))
        emit(T[I - 2].Line, T[I - 2].Col, "conc-thread",
             "naked std::thread outside src/support; use ThreadPool or "
             "justify the managed thread at the spawn site");
  }

  // Apply suppressions: a line-scoped `allow` covers its comment's lines
  // and the next line; `allow-file` covers the file.
  for (Diagnostic &D : Raw) {
    if (D.Rule == "lint-suppression")
      continue; // Never waivable.
    for (Suppression &S : Sups) {
      if (!S.Rules.count(D.Rule))
        continue;
      if (!S.FileWide && !(D.Line >= S.Line && D.Line <= S.EndLine + 1))
        continue;
      D.Suppressed = true;
      D.Justification = S.Justification;
      S.Used = true;
      break;
    }
  }
  for (const Suppression &S : Sups)
    if (!S.Used && ruleEnabled("unused-suppression"))
      Raw.push_back({DisplayPath, S.Line, 1, "unused-suppression",
                     Severity::Warning,
                     "suppression matched no diagnostic; remove it", false,
                     ""});

  std::sort(Raw.begin(), Raw.end(),
            [](const Diagnostic &A, const Diagnostic &B) {
              return std::tie(A.Line, A.Col, A.Rule) <
                     std::tie(B.Line, B.Col, B.Rule);
            });
  Result.Diagnostics.insert(Result.Diagnostics.end(), Raw.begin(),
                            Raw.end());
  ++Result.FilesScanned;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

std::string craft::lint::renderDiagnostic(const Diagnostic &D) {
  std::string S = D.File + ":" + std::to_string(D.Line) + ":" +
                  std::to_string(D.Col) + ": " +
                  (D.Sev == Severity::Error ? "error" : "warning") +
                  ": [" + D.Rule + "] " + D.Message;
  if (D.Suppressed)
    S += " (suppressed: " + D.Justification + ")";
  return S;
}

namespace {

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

} // namespace

std::string craft::lint::toJson(const LintResult &Result) {
  std::string S = "{\n  \"schema_version\": 1,\n  \"files_scanned\": " +
                  std::to_string(Result.FilesScanned) +
                  ",\n  \"errors\": " +
                  std::to_string(Result.unsuppressedErrors()) +
                  ",\n  \"suppressed\": " +
                  std::to_string(Result.suppressedCount()) +
                  ",\n  \"diagnostics\": [";
  bool First = true;
  for (const Diagnostic &D : Result.Diagnostics) {
    if (!First)
      S += ",";
    First = false;
    S += "\n    {\"file\": \"" + jsonEscape(D.File) +
         "\", \"line\": " + std::to_string(D.Line) +
         ", \"col\": " + std::to_string(D.Col) + ", \"rule\": \"" +
         jsonEscape(D.Rule) + "\", \"severity\": \"" +
         (D.Sev == Severity::Error ? "error" : "warning") +
         "\", \"suppressed\": " + (D.Suppressed ? "true" : "false") +
         ", \"message\": \"" + jsonEscape(D.Message) + "\"";
    if (D.Suppressed)
      S += ", \"justification\": \"" + jsonEscape(D.Justification) + "\"";
    S += "}";
  }
  S += First ? "]\n}\n" : "\n  ]\n}\n";
  return S;
}

//===----------------------------------------------------------------------===//
// CLI driver
//===----------------------------------------------------------------------===//

int craft::lint::lintMain(const std::vector<std::string> &Args,
                          std::string &Out) {
  namespace fs = std::filesystem;
  bool Json = false, ListRules = false;
  std::string Root;
  std::vector<std::string> RuleFilter, Paths;

  for (size_t I = 0; I < Args.size(); ++I) {
    const std::string &A = Args[I];
    if (A == "--json") {
      Json = true;
    } else if (A == "--list-rules") {
      ListRules = true;
    } else if (A == "--root" || A == "--rule") {
      if (I + 1 >= Args.size()) {
        Out += "craft-lint: missing argument to " + A + "\n";
        return 2;
      }
      if (A == "--root")
        Root = Args[++I];
      else
        RuleFilter.push_back(Args[++I]);
    } else if (!A.empty() && A[0] == '-') {
      Out += "craft-lint: unknown flag '" + A +
             "'\nusage: craft_lint [--json] [--list-rules] [--root DIR] "
             "[--rule ID]... PATH...\n";
      return 2;
    } else {
      Paths.push_back(A);
    }
  }

  for (const std::string &R : RuleFilter) {
    bool Known = false;
    for (const RuleInfo &Info : allRules())
      Known = Known || Info.Id == R;
    if (!Known) {
      Out += "craft-lint: unknown rule '" + R + "' (see --list-rules)\n";
      return 2;
    }
  }

  if (ListRules) {
    for (const RuleInfo &R : allRules())
      Out += R.Id + " [" +
             (R.Sev == Severity::Error ? "error" : "warning") + "]\n  " +
             R.Summary + "\n  protects: " + R.Invariant + "\n";
    return 0;
  }

  if (Paths.empty()) {
    Out += "craft-lint: no input paths\nusage: craft_lint [--json] "
           "[--list-rules] [--root DIR] [--rule ID]... PATH...\n";
    return 2;
  }

  // Expand directories into *.h / *.cpp files, sorted for stable output.
  std::vector<std::string> Files;
  std::error_code Ec;
  for (const std::string &P : Paths) {
    fs::path Path(P);
    if (fs::is_directory(Path, Ec)) {
      for (fs::recursive_directory_iterator It(Path, Ec), End;
           It != End && !Ec; It.increment(Ec)) {
        if (!It->is_regular_file())
          continue;
        std::string Ext = It->path().extension().string();
        if (Ext == ".h" || Ext == ".cpp" || Ext == ".hpp" || Ext == ".cc")
          Files.push_back(It->path().generic_string());
      }
    } else if (fs::is_regular_file(Path, Ec)) {
      Files.push_back(Path.generic_string());
    } else {
      Out += "craft-lint: cannot read '" + P + "'\n";
      return 2;
    }
  }
  std::sort(Files.begin(), Files.end());

  const fs::path RootPath =
      Root.empty() ? fs::current_path() : fs::path(Root);
  LintResult Result;
  for (const std::string &F : Files) {
    std::ifstream In(F, std::ios::binary);
    if (!In) {
      Out += "craft-lint: cannot read '" + F + "'\n";
      return 2;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    // Rule scoping keys off the repo-relative path with forward slashes.
    std::string Rel =
        fs::relative(fs::absolute(F), RootPath, Ec).generic_string();
    if (Ec || Rel.empty() || startsWith(Rel, ".."))
      Rel = F;
    lintBuffer(Rel, Rel, Buf.str(), RuleFilter, Result);
  }

  if (Json) {
    Out += toJson(Result);
  } else {
    for (const Diagnostic &D : Result.Diagnostics)
      if (!D.Suppressed)
        Out += renderDiagnostic(D) + "\n";
    Out += "craft-lint: " + std::to_string(Result.FilesScanned) +
           " files, " + std::to_string(Result.unsuppressedErrors()) +
           " violations, " + std::to_string(Result.suppressedCount()) +
           " suppressed\n";
  }
  return Result.unsuppressedErrors() > 0 ? 1 : 0;
}
