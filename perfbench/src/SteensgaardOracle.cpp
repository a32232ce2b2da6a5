//===- perfbench/src/SteensgaardOracle.cpp - Reference points-to ----------===//
//
// Part of egglog-cpp's benchmark. See SteensgaardOracle.h for an overview.
//
//===----------------------------------------------------------------------===//

#include "SteensgaardOracle.h"

#include <algorithm>
#include <numeric>
#include <utility>

using namespace perfbench;
using egglog::pointsto::Program;

namespace {

constexpr uint32_t None = UINT32_MAX;

/// Union-find over abstract objects (every allocation id, plus one fresh
/// object per variable under Steensgaard semantics), iterated over the
/// facts to a fixpoint.
class Solver {
public:
  Solver(const Program &P, PointsToSemantics Semantics) : P(P) {
    uint32_t Nodes = P.numAllAllocs();
    if (Semantics == PointsToSemantics::Steensgaard)
      Nodes += P.NumVars;
    Parent.resize(Nodes);
    std::iota(Parent.begin(), Parent.end(), 0);
    Size.assign(Nodes, 1);
    Cell.assign(Nodes, None);
    Stored.assign(Nodes, 0);
    Base.assign(Nodes, None);
    for (uint32_t A = 0; A < P.NumBaseAllocs; ++A)
      Base[A] = A;
    Points.assign(P.NumVars, None);
    if (Semantics == PointsToSemantics::Steensgaard)
      for (uint32_t V = 0; V < P.NumVars; ++V)
        Points[V] = P.numAllAllocs() + V;
  }

  std::vector<uint32_t> solve() {
    do {
      Changed = false;
      for (auto [V, A] : P.Allocs)
        pointTo(V, A);
      for (auto [D, S] : P.Copies)
        if (Points[S] != None)
          pointTo(D, Points[S]);
      for (auto [D, B, F] : P.Geps)
        if (Points[B] != None && Base[find(Points[B])] != None)
          pointTo(D, P.fieldAlloc(Base[find(Points[B])], F));
      for (auto [D, S] : P.Stores)
        if (Points[D] != None && Points[S] != None)
          addToCell(Points[D], Points[S], /*FromStore=*/true);
      for (auto [D, S] : P.Loads) {
        if (Points[S] == None)
          continue;
        uint32_t C = find(Points[S]);
        if (Points[D] != None)
          addToCell(C, Points[D], /*FromStore=*/false);
        else if (Stored[C])
          pointTo(D, Cell[C]);
      }
    } while (Changed);

    std::vector<uint32_t> Min(Parent.size(), None);
    for (uint32_t A = 0; A < P.numAllAllocs(); ++A)
      Min[find(A)] = std::min(Min[find(A)], A);
    std::vector<uint32_t> Class(P.numAllAllocs());
    for (uint32_t A = 0; A < P.numAllAllocs(); ++A)
      Class[A] = Min[find(A)];
    return Class;
  }

private:
  const Program &P;
  std::vector<uint32_t> Parent, Size;
  /// Per class root: the class of its contents, whether a store defined
  /// them (only stored values flow out of loads), and one base
  /// allocation in the class (field congruence makes any one serve).
  std::vector<uint32_t> Cell;
  std::vector<char> Stored;
  std::vector<uint32_t> Base;
  /// Per variable: an object of its points-to class, or None.
  std::vector<uint32_t> Points;
  std::vector<std::pair<uint32_t, uint32_t>> Pending;
  bool Changed = false;

  uint32_t find(uint32_t X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  }

  void pointTo(uint32_t V, uint32_t Object) {
    if (Points[V] == None) {
      Points[V] = Object;
      Changed = true;
    } else {
      unite(Points[V], Object);
    }
  }

  void addToCell(uint32_t Object, uint32_t Value, bool FromStore) {
    uint32_t C = find(Object);
    if (Cell[C] == None) {
      Cell[C] = Value;
      Changed = true;
    } else {
      unite(Cell[C], Value);
      C = find(C);
    }
    if (FromStore && !Stored[C]) {
      Stored[C] = 1;
      Changed = true;
    }
  }

  /// Unites two classes and, transitively, their contents and the fields
  /// of their base allocations.
  void unite(uint32_t A, uint32_t B) {
    Pending.emplace_back(A, B);
    while (!Pending.empty()) {
      auto [X, Y] = Pending.back();
      Pending.pop_back();
      uint32_t Rx = find(X), Ry = find(Y);
      if (Rx == Ry)
        continue;
      Changed = true;
      if (Size[Rx] < Size[Ry])
        std::swap(Rx, Ry);
      Parent[Ry] = Rx;
      Size[Rx] += Size[Ry];
      if (Cell[Ry] != None) {
        if (Cell[Rx] == None)
          Cell[Rx] = Cell[Ry];
        else
          Pending.emplace_back(Cell[Rx], Cell[Ry]);
      }
      Stored[Rx] |= Stored[Ry];
      if (Base[Ry] != None) {
        if (Base[Rx] == None)
          Base[Rx] = Base[Ry];
        else
          for (uint32_t F = 0; F < P.NumFields; ++F)
            Pending.emplace_back(P.fieldAlloc(Base[Rx], F),
                                 P.fieldAlloc(Base[Ry], F));
      }
    }
  }
};

} // namespace

std::vector<uint32_t>
perfbench::oraclePartition(const egglog::pointsto::Program &P,
                           PointsToSemantics Semantics) {
  return Solver(P, Semantics).solve();
}
