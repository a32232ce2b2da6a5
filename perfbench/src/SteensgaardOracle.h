//===- perfbench/src/SteensgaardOracle.h - Reference points-to --*- C++ -*-===//
//
// Part of egglog-cpp's benchmark (see perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An independent unification-based points-to analysis over the points-to
/// fact schema, written directly as union-find with per-class data, and
/// sharing no code with the engine. Classes of abstract objects carry a
/// `contents` cell (congruence), and a base allocation whose field objects
/// gep reaches (field congruence unifies the fields of unified
/// allocations). Its output is the allocation partition in the form
/// AnalysisResult::AllocClass uses: for each allocation id, the smallest
/// allocation id in its class.
///
/// Two semantics differ only in variables that point to nothing:
///
///  * Steensgaard — every variable points to an abstract object, fresh if
///    nothing else, so copies, loads and stores unify even through
///    pointers with an empty points-to set. This is what the native
///    egglog encoding (System::Egglog) computes.
///  * NonEmptyOnly — unification happens only between non-empty
///    points-to sets, and only stored values flow out of a load. This is
///    what the Datalog encoding System::Patched computes.
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_PERFBENCH_STEENSGAARDORACLE_H
#define EGGLOG_PERFBENCH_STEENSGAARDORACLE_H

#include "pointsto/ProgramGenerator.h"

#include <cstdint>
#include <vector>

namespace perfbench {

enum class PointsToSemantics { Steensgaard, NonEmptyOnly };

std::vector<uint32_t> oraclePartition(const egglog::pointsto::Program &P,
                                      PointsToSemantics Semantics);

} // namespace perfbench

#endif // EGGLOG_PERFBENCH_STEENSGAARDORACLE_H
