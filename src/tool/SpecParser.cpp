//===- tool/SpecParser.cpp ------------------------------------------------===//

#include "tool/SpecParser.h"

#include "core/SplitEngine.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <set>
#include <sstream>

using namespace craft;

std::string SpecDiagnostic::render(const std::string &FileName) const {
  std::ostringstream Os;
  Os << FileName << ":" << Line << ":" << Column << ": error: " << Message;
  return Os.str();
}

namespace {

/// One whitespace-separated token with its source position.
struct Token {
  std::string Text;
  int Line;
  int Column;
};

/// Splits one line into tokens; '#' starts a comment.
void tokenizeLine(const std::string &LineText, int LineNo,
                  std::vector<Token> &Out) {
  size_t I = 0;
  while (I < LineText.size()) {
    if (LineText[I] == '#')
      return;
    if (std::isspace(static_cast<unsigned char>(LineText[I]))) {
      ++I;
      continue;
    }
    size_t Start = I;
    while (I < LineText.size() && LineText[I] != '#' &&
           !std::isspace(static_cast<unsigned char>(LineText[I])))
      ++I;
    Out.push_back({LineText.substr(Start, I - Start), LineNo,
                   static_cast<int>(Start) + 1});
  }
}

/// Parser state: one statement per line, two-level structure (the `input`
/// block's properties are recognized by keyword, so indentation is
/// cosmetic).
class Parser {
public:
  explicit Parser(const std::string &Source) {
    std::istringstream Is(Source);
    std::string LineText;
    int LineNo = 0;
    while (std::getline(Is, LineText)) {
      ++LineNo;
      std::vector<Token> Tokens;
      tokenizeLine(LineText, LineNo, Tokens);
      if (!Tokens.empty())
        Lines.push_back(std::move(Tokens));
    }
  }

  SpecParseResult run() {
    for (const std::vector<Token> &Line : Lines)
      statement(Line);
    finalize();
    SpecParseResult Result;
    Result.Diagnostics = std::move(Diags);
    if (Result.Diagnostics.empty()) {
      Result.Specs = std::move(Specs);
      Result.Spec = Result.Specs.front();
    }
    return Result;
  }

private:
  void error(const Token &At, const std::string &Message) {
    Diags.push_back({At.Line, At.Column, Message});
  }

  bool number(const Token &T, double &Out) {
    char *End = nullptr;
    Out = std::strtod(T.Text.c_str(), &End);
    if (End == T.Text.c_str() || *End != '\0') {
      error(T, "expected a number, got '" + T.Text + "'");
      return false;
    }
    // Overflowed literals (1e999) parse to inf; accepting them silently
    // produces nonsense regions and NaN margins downstream.
    if (!std::isfinite(Out)) {
      error(T, "number '" + T.Text + "' is out of range");
      return false;
    }
    return true;
  }

  /// Single-occurrence enforcement for file-wide directives: a second
  /// `model`/`output`/... would silently overwrite the first, which
  /// almost always means a concatenated or mangled spec file.
  bool once(const Token &Head) {
    if (!SeenOnce.insert(Head.Text).second) {
      error(Head, "duplicate '" + Head.Text + "' directive");
      return false;
    }
    return true;
  }

  bool integer(const Token &T, int &Out, int Min,
               int Max = std::numeric_limits<int>::max()) {
    double V = 0.0;
    if (!number(T, V))
      return false;
    // Range first: casting a double outside int's range is undefined.
    if (!(V >= Min && V <= Max) || V != std::floor(V)) {
      std::string Range = "expected an integer >= " + std::to_string(Min);
      if (Max < std::numeric_limits<int>::max())
        Range += " and <= " + std::to_string(Max);
      error(T, Range + ", got '" + T.Text + "'");
      return false;
    }
    Out = static_cast<int>(V);
    return true;
  }

  /// Parses `<v1> <v2> ...` or `fill <value> <count>` into \p Out.
  bool vectorTail(const std::vector<Token> &Line, size_t From, Vector &Out,
                  const char *What) {
    if (From >= Line.size()) {
      error(Line.back(), std::string("expected values after '") + What +
                             "'");
      return false;
    }
    if (Line[From].Text == "fill") {
      if (From + 2 >= Line.size()) {
        error(Line[From], "'fill' needs a value and a count");
        return false;
      }
      double Value = 0.0;
      int Count = 0;
      if (!number(Line[From + 1], Value) ||
          !integer(Line[From + 2], Count, 1))
        return false;
      Out = Vector(static_cast<size_t>(Count), Value);
      return true;
    }
    std::vector<double> Values;
    for (size_t I = From; I < Line.size(); ++I) {
      double V = 0.0;
      if (!number(Line[I], V))
        return false;
      Values.push_back(V);
    }
    Out = Vector(std::move(Values));
    return true;
  }

  /// One `input` block: the region lines that vary per query. Epsilon and
  /// clamp values fall back to the file-wide defaults when unset here.
  struct InputSection {
    std::string Kind; ///< "linf" or "box".
    Vector Center, Lo, Hi;
    double Epsilon = 0.0;
    bool HaveEpsilon = false;
    double ClampLo = 0.0, ClampHi = 1.0;
    bool HaveClamp = false;
  };

  /// Region lines must follow an `input` line; returns the open section.
  InputSection *section(const Token &Head) {
    if (Sections.empty()) {
      error(Head, "'" + Head.Text + "' must follow an 'input' line");
      return nullptr;
    }
    return &Sections.back();
  }

  void statement(const std::vector<Token> &Line) {
    const Token &Head = Line[0];
    const std::string &Kw = Head.Text;
    auto tailToken = [&](size_t I) -> const Token & {
      return I < Line.size() ? Line[I] : Line.back();
    };

    if (Kw == "model") {
      if (Line.size() != 2)
        return error(Head, "'model' takes exactly one path");
      if (!once(Head))
        return;
      Base.ModelPath = Line[1].Text;
    } else if (Kw == "input") {
      if (Line.size() != 2 ||
          (Line[1].Text != "linf" && Line[1].Text != "box"))
        return error(Head, "'input' must be 'input linf' or 'input box'");
      Sections.emplace_back();
      Sections.back().Kind = Line[1].Text;
    } else if (Kw == "center") {
      InputSection *S = section(Head);
      if (!S)
        return;
      if (S->Kind != "linf")
        return error(Head, "'center' applies to 'input linf' blocks");
      if (!S->Center.empty())
        return error(Head, "duplicate 'center' in this input block");
      vectorTail(Line, 1, S->Center, "center");
    } else if (Kw == "lo") {
      InputSection *S = section(Head);
      if (!S)
        return;
      if (S->Kind != "box")
        return error(Head, "'lo' applies to 'input box' blocks");
      if (!S->Lo.empty())
        return error(Head, "duplicate 'lo' in this input block");
      vectorTail(Line, 1, S->Lo, "lo");
    } else if (Kw == "hi") {
      InputSection *S = section(Head);
      if (!S)
        return;
      if (S->Kind != "box")
        return error(Head, "'hi' applies to 'input box' blocks");
      if (!S->Hi.empty())
        return error(Head, "duplicate 'hi' in this input block");
      vectorTail(Line, 1, S->Hi, "hi");
    } else if (Kw == "epsilon") {
      if (Line.size() != 2)
        return error(Head, "'epsilon' takes one number");
      double Eps = 0.0;
      if (!number(Line[1], Eps))
        return;
      if (Eps < 0.0)
        return error(Line[1], "epsilon must be nonnegative");
      if (Sections.empty()) {
        if (HaveDefaultEpsilon)
          return error(Head, "duplicate file-wide 'epsilon' directive");
        DefaultEpsilon = Eps;
        HaveDefaultEpsilon = true;
      } else {
        if (Sections.back().Kind != "linf")
          return error(Head, "'epsilon' applies to 'input linf' blocks");
        if (Sections.back().HaveEpsilon)
          return error(Head, "duplicate 'epsilon' in this input block");
        Sections.back().Epsilon = Eps;
        Sections.back().HaveEpsilon = true;
      }
    } else if (Kw == "clamp") {
      if (Line.size() != 3)
        return error(Head, "'clamp' takes a lower and an upper bound");
      double Lo = 0.0, Hi = 1.0;
      if (number(Line[1], Lo) && number(Line[2], Hi)) {
        if (Lo > Hi)
          return error(Line[1], "clamp range is empty");
        if (Sections.empty()) {
          if (HaveDefaultClamp)
            return error(Head, "duplicate file-wide 'clamp' directive");
          HaveDefaultClamp = true;
          DefaultClampLo = Lo;
          DefaultClampHi = Hi;
        } else {
          if (Sections.back().HaveClamp)
            return error(Head, "duplicate 'clamp' in this input block");
          Sections.back().ClampLo = Lo;
          Sections.back().ClampHi = Hi;
          Sections.back().HaveClamp = true;
        }
      }
    } else if (Kw == "output") {
      if (Line.size() != 3 || Line[1].Text != "robust")
        return error(Head, "'output' must be 'output robust <class>'");
      if (!once(Head))
        return;
      integer(Line[2], Base.TargetClass, 0);
    } else if (Kw == "verifier") {
      if (Line.size() != 2)
        return error(Head, "'verifier' takes one engine name");
      if (!once(Head))
        return;
      const std::string &Name = Line[1].Text;
      if (Name == "craft")
        Base.Verifier = SpecVerifier::Craft;
      else if (Name == "box")
        Base.Verifier = SpecVerifier::Box;
      else if (Name == "crown")
        Base.Verifier = SpecVerifier::Crown;
      else if (Name == "lipschitz")
        Base.Verifier = SpecVerifier::Lipschitz;
      else
        error(Line[1], "unknown verifier '" + Name +
                           "' (craft, box, crown, lipschitz)");
    } else if (Kw == "domain") {
      if (Line.size() != 2)
        return error(Head, "'domain' takes one domain name");
      if (!once(Head))
        return;
      std::optional<VerifierDomain> D = parseVerifierDomain(Line[1].Text);
      if (!D)
        return error(Line[1], "unknown domain '" + Line[1].Text +
                                  "' (box, zono, chzono)");
      Base.Domain = *D;
    } else if (Kw == "cascade") {
      // Parsed and ignored: specs written for the retired cascade use it.
      if (Line.size() != 2)
        return error(Head, "'cascade' takes one policy (off, adapt, full)");
      if (!once(Head))
        return;
      if (Line[1].Text != "off" && Line[1].Text != "adapt" &&
          Line[1].Text != "full")
        return error(Line[1], "invalid cascade policy '" + Line[1].Text +
                                  "' (off, adapt, full)");
    } else if (Kw == "alpha1") {
      // A bare `alpha1` was silently ignored before this arity check.
      if (Line.size() != 2)
        return error(Head, "'alpha1' takes one number");
      if (!once(Head) || !number(Line[1], Base.Alpha1))
        return;
      if (Base.Alpha1 <= 0.0)
        error(Line[1], "alpha1 must be positive");
    } else if (Kw == "alpha2") {
      if (Line.size() == 2) {
        if (once(Head))
          number(Line[1], Base.Alpha2);
      } else
        error(Head, "'alpha2' takes one number");
    } else if (Kw == "max-iterations") {
      if (Line.size() == 2) {
        if (once(Head))
          integer(Line[1], Base.MaxIterations, 1);
      } else
        error(Head, "'max-iterations' takes one integer");
    } else if (Kw == "split-depth") {
      if (Line.size() == 2) {
        if (once(Head))
          integer(Line[1], Base.SplitDepth, 0, MaxSupportedSplitDepth);
      } else
        error(Head, "'split-depth' takes one integer");
    } else if (Kw == "split-jobs") {
      if (Line.size() == 2) {
        if (once(Head))
          integer(Line[1], Base.SplitJobs, 0);
      } else
        error(Head, "'split-jobs' takes one integer (0 = all threads)");
    } else if (Kw == "lambda-opt") {
      if (Line.size() == 2) {
        if (once(Head) && integer(Line[1], Base.LambdaOptLevel, 0) &&
            Base.LambdaOptLevel > 2)
          error(Line[1], "lambda-opt level is 0, 1 or 2");
      } else
        error(Head, "'lambda-opt' takes one integer");
    } else if (Kw == "certificate") {
      if (Line.size() != 2)
        return error(Head, "'certificate' takes exactly one path");
      if (!once(Head))
        return;
      Base.CertificatePath = Line[1].Text;
    } else if (Kw == "attack") {
      if (Line.size() != 2 ||
          (Line[1].Text != "on" && Line[1].Text != "off"))
        return error(Head, "'attack' must be 'attack on' or 'attack off'");
      if (!once(Head))
        return;
      Base.Attack = Line[1].Text == "on";
    } else if (Kw == "seed") {
      if (Line.size() != 2)
        return error(Head, "'seed' takes one nonnegative integer");
      if (!once(Head))
        return;
      // Full-width parse: AttackSeed is uint64_t and any 64-bit seed is
      // legal, so the int-based integer() helper would be too narrow.
      const std::string &T = Line[1].Text;
      char *End = nullptr;
      errno = 0;
      unsigned long long V = std::strtoull(T.c_str(), &End, 10);
      if (T.empty() || T[0] == '-' || End == T.c_str() || *End != '\0' ||
          errno == ERANGE)
        return error(Line[1], "'seed' takes one nonnegative 64-bit integer");
      Base.AttackSeed = V;
    } else {
      error(Head, "unknown directive '" + Kw + "'");
    }
    (void)tailToken;
  }

  void finalize() {
    Token End{"", Lines.empty() ? 1 : Lines.back()[0].Line, 1};
    if (Base.ModelPath.empty())
      error(End, "missing 'model' directive");
    if (Base.TargetClass < 0)
      error(End, "missing 'output robust <class>' directive");
    // Domain selection is a craft-engine concept: the box engine is
    // shorthand for craft-on-Box, and crown/lipschitz have no pluggable
    // domain at all.
    if (SeenOnce.count("domain") && Base.Verifier != SpecVerifier::Craft)
      error(End, "'domain' requires the craft engine (use 'domain box' "
                 "instead of 'verifier box' to run craft on intervals)");
    if (SeenOnce.count("cascade") && Base.Verifier != SpecVerifier::Craft)
      error(End, "'cascade' requires the craft engine");
    if (Sections.empty())
      return error(End, "missing 'input linf' or 'input box' block");

    for (size_t Idx = 0; Idx < Sections.size(); ++Idx) {
      const InputSection &Sec = Sections[Idx];
      VerificationSpec Spec = Base;
      Spec.ClampLo = Sec.HaveClamp ? Sec.ClampLo : DefaultClampLo;
      Spec.ClampHi = Sec.HaveClamp ? Sec.ClampHi : DefaultClampHi;
      if (Sec.Kind == "linf") {
        if (Sec.Center.empty())
          return error(End, "'input linf' needs a 'center' line");
        if (!Sec.HaveEpsilon && !HaveDefaultEpsilon)
          return error(End, "'input linf' needs an 'epsilon' line");
        Spec.Center = Sec.Center;
        Spec.Epsilon = Sec.HaveEpsilon ? Sec.Epsilon : DefaultEpsilon;
        Spec.InLo = Vector(Spec.Center.size());
        Spec.InHi = Vector(Spec.Center.size());
        for (size_t I = 0; I < Spec.Center.size(); ++I) {
          Spec.InLo[I] =
              std::max(Spec.Center[I] - Spec.Epsilon, Spec.ClampLo);
          Spec.InHi[I] =
              std::min(Spec.Center[I] + Spec.Epsilon, Spec.ClampHi);
        }
      } else {
        if (Sec.Lo.empty() || Sec.Hi.empty())
          return error(End, "'input box' needs 'lo' and 'hi' lines");
        if (Sec.Lo.size() != Sec.Hi.size())
          return error(End, "'lo' and 'hi' have different lengths");
        for (size_t I = 0; I < Sec.Lo.size(); ++I)
          if (Sec.Lo[I] > Sec.Hi[I])
            return error(End, "empty input box at dimension " +
                                  std::to_string(I));
        Spec.InLo = Sec.Lo;
        Spec.InHi = Sec.Hi;
      }
      // One witness file per query: suffix every query after the first so
      // a multi-input spec does not overwrite its own certificates.
      if (!Spec.CertificatePath.empty() && Idx > 0) {
        Spec.CertificatePath += '.'; // += pieces, not `"." + rvalue`: GCC
        Spec.CertificatePath += std::to_string(Idx); // 12 -Wrestrict misfires.
      }
      Specs.push_back(std::move(Spec));
    }
  }

  std::vector<std::vector<Token>> Lines;
  std::vector<SpecDiagnostic> Diags;
  VerificationSpec Base;
  std::vector<InputSection> Sections;
  std::vector<VerificationSpec> Specs;
  std::set<std::string> SeenOnce; ///< Single-occurrence directives seen.
  double DefaultEpsilon = 0.0;
  bool HaveDefaultEpsilon = false;
  bool HaveDefaultClamp = false;
  double DefaultClampLo = 0.0, DefaultClampHi = 1.0;
};

} // namespace

SpecParseResult craft::parseSpec(const std::string &Source,
                                 const std::string &FileName) {
  (void)FileName;
  return Parser(Source).run();
}

SpecParseResult craft::parseSpecFile(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    SpecParseResult Result;
    Result.Diagnostics.push_back({1, 1, "cannot open '" + Path + "'"});
    return Result;
  }
  std::string Source;
  char Buf[4096];
  size_t N = 0;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Source.append(Buf, N);
  std::fclose(F);
  return parseSpec(Source, Path);
}
