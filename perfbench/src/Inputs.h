//===- perfbench/src/Inputs.h - Seeded workload inputs ----------*- C++ -*-===//
//
// Everything a workload feeds the program is a pure function of the
// workload seed: the trained model, the spec texts, and (for serve-mixed)
// the request sequence. `perfbench gen` trains the models and writes model
// and spec files into a per-seed directory once; later runs with the same
// seed find them there and skip training, so training never lands in a
// timed section or in setup_s.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include "nn/MonDeq.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Queries in the verify-mnist pool (one spec file each), run as one batch.
/// One pass over the pool takes about 5 s on a 4-core host, so a run holds
/// several passes and reports the median. The pool size is odd and 0.85
/// times it falls well inside an integer interval, so the p50 and p85 of
/// the pooled per-query times land amid one query's repeats rather than
/// between two queries (see setLatency).
constexpr size_t MnistPoolSize = 15;
/// l-inf radii the verify-mnist pool cycles through.
constexpr double MnistRadii[] = {0.06, 0.09, 0.12};
/// alpha1 for mnist_fc100 (Table 7).
constexpr double MnistAlpha1 = 0.06;

/// Sub-boxes in the split-gmm pool (one spec file each); odd for the same
/// reason as MnistPoolSize.
constexpr size_t SplitPoolSize = 25;
constexpr int SplitDepth = 9;

/// Writes the inputs of \p Workload for \p Seed into \p Dir unless a
/// complete set is already there. Returns false (with a message on
/// stderr) on failure.
bool generateInputs(const std::string &Workload, uint64_t Seed,
                    const std::string &Dir);

/// Path of the trained model inside an input directory.
std::string modelPath(const std::string &Dir);

/// The set-up a user pays before the first query: loads the model file at
/// \p Path \p Count times, each time warming its lazy alpha bound, and
/// appends each duration in seconds to \p Seconds. Returns the last model
/// loaded (nullopt when the file does not load).
std::optional<craft::MonDeq> timeModelLoads(const std::string &Path,
                                            int Count,
                                            std::vector<double> &Seconds);

/// The pool's spec texts, in pool order.
std::vector<std::string> readSpecTexts(const std::string &Dir);

/// A correctly classified sample of the serve-mixed model.
struct Sample {
  craft::Vector Center;
  int Label = 0;
};
std::vector<Sample> readSamples(const std::string &Dir);

/// Shortest round-trip decimal form of \p V.
std::string exact(double V);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
