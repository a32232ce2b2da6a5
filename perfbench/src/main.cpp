//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
//
// Part of egglog-cpp's benchmark (see perfbench/README.md).
//
// Usage: perfbench --workload <pointsto|herbie|eqsat>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--scratch <dir>]
//
// Prints progress on standard error and, as the last line of standard
// output, one JSON object with `correct`, `attempted`, `failed` and
// `metrics`. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 they are the per-layer ones of a separate traced run.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

int main(int argc, char **argv) {
  Settings S;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string Flag = argv[I];
    const char *Arg = argv[I + 1];
    if (Flag == "--workload")
      S.Workload = Arg;
    else if (Flag == "--seed")
      S.Seed = std::strtoull(Arg, nullptr, 10);
    else if (Flag == "--seconds")
      S.Seconds = std::atof(Arg);
    else if (Flag == "--trace")
      S.Trace = std::strcmp(Arg, "0") != 0;
    else if (Flag == "--scratch")
      S.ScratchDir = Arg;
    else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", Flag.c_str());
      return 2;
    }
  }

  Result R;
  if (S.Workload == "pointsto")
    runPointsToWorkload(S, R);
  else if (S.Workload == "herbie")
    runHerbieWorkload(S, R);
  else if (S.Workload == "eqsat")
    runEqSatWorkload(S, R);
  else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 S.Workload.c_str());
    return 2;
  }
  R.print();
  return 0;
}
