//===- tests/pointsto/PointsToTest.cpp - Steensgaard case study ------------===//
//
// Part of egglog-cpp. Tests the §6.1 case study: the generator, the native
// egglog Steensgaard analysis, and agreement between the systems (the
// paper: "All the systems except for cclyzer++ report the same size for
// computed points-to relations"), where the Datalog encodings may only be
// finer than egglog.
//
//===----------------------------------------------------------------------===//

#include "pointsto/Analyses.h"

#include <gtest/gtest.h>

using namespace egglog::pointsto;

namespace {

/// Hand-built program: p and q end up aliased through a copy, so their
/// pointees must unify.
Program tinyAliasProgram() {
  Program P;
  P.Name = "tiny";
  P.NumVars = 4;
  P.NumBaseAllocs = 2;
  P.NumFields = 1;
  // v0 = &A0; v1 = &A1; v0 = v1 (copy): A0 and A1 unify.
  P.Allocs = {{0, 0}, {1, 1}};
  P.Copies = {{0, 1}};
  return P;
}

/// p = &A0; q = &A1; *p = x with x = &A0copy... exercise loads/stores:
/// v0=&A0, v1=&A1, *v0 = v1 (store), v2 = *v0 (load): v2 and v1 pointees
/// unify — contents propagate.
Program tinyHeapProgram() {
  Program P;
  P.Name = "tiny-heap";
  P.NumVars = 4;
  P.NumBaseAllocs = 3;
  P.NumFields = 1;
  P.Allocs = {{0, 0}, {1, 1}, {3, 2}};
  P.Stores = {{0, 1}}; // *v0 = v1
  P.Loads = {{2, 0}};  // v2 = *v0
  P.Copies = {{2, 3}}; // v2 = v3 : pointees of v2 (i.e. {A1}) unify with {A2}
  return P;
}

Program tinyFieldProgram() {
  Program P;
  P.Name = "tiny-field";
  P.NumVars = 5;
  P.NumBaseAllocs = 3;
  P.NumFields = 2;
  // v0 = &A0; v1 = &A1; v0 = v1 => A0 ~ A1 ;
  // v2 = &v0->f0 ; v3 = &v1->f0 => field allocs of A0/A1 at f0 unify.
  P.Allocs = {{0, 0}, {1, 1}, {4, 2}};
  P.Copies = {{0, 1}};
  P.Geps = {{2, 0, 0}, {3, 1, 0}};
  return P;
}

/// True if partition \p Fine refines \p Coarse: allocations that share a
/// class in Fine share one in Coarse.
bool refines(const std::vector<uint32_t> &Fine,
             const std::vector<uint32_t> &Coarse) {
  if (Fine.size() != Coarse.size())
    return false;
  for (size_t A = 0; A < Fine.size(); ++A)
    if (Coarse[A] != Coarse[Fine[A]])
      return false;
  return true;
}

} // namespace

TEST(PointsToTest, GeneratorIsDeterministic) {
  GeneratorOptions Opts;
  Opts.Seed = 7;
  Opts.Size = 500;
  Program A = generateProgram("a", Opts);
  Program B = generateProgram("b", Opts);
  EXPECT_EQ(A.Allocs, B.Allocs);
  EXPECT_EQ(A.Copies, B.Copies);
  EXPECT_EQ(A.Geps, B.Geps);
  EXPECT_GE(A.numInstructions(), 500u);
  EXPECT_GT(A.NumVars, 0u);
}

TEST(PointsToTest, SuiteHasThirtyGrowingPrograms) {
  std::vector<Program> Suite = postgresSuite(0.1);
  ASSERT_EQ(Suite.size(), 30u);
  EXPECT_EQ(Suite.front().Name, "libpgtypes.so.3.6");
  EXPECT_EQ(Suite.back().Name, "ecpg");
  EXPECT_LT(Suite.front().numInstructions(), Suite.back().numInstructions());
}

TEST(PointsToTest, CopyUnifiesPointees) {
  Program P = tinyAliasProgram();
  AnalysisResult R = runPointsTo(P, System::Egglog);
  ASSERT_FALSE(R.TimedOut);
  EXPECT_EQ(R.AllocClass[0], R.AllocClass[1])
      << "copy must unify the pointees of both variables";
}

TEST(PointsToTest, LoadStoreUnifiesThroughTheHeap) {
  Program P = tinyHeapProgram();
  AnalysisResult R = runPointsTo(P, System::Egglog);
  ASSERT_FALSE(R.TimedOut);
  EXPECT_EQ(R.AllocClass[1], R.AllocClass[2])
      << "store then load then copy must unify A1 with A2";
  EXPECT_NE(R.AllocClass[0], R.AllocClass[1]);
}

TEST(PointsToTest, FieldSensitivity) {
  Program P = tinyFieldProgram();
  AnalysisResult R = runPointsTo(P, System::Egglog);
  ASSERT_FALSE(R.TimedOut);
  // A0 ~ A1, so their f0 sub-allocations unify, and the two gep'd vars
  // alias. Different fields stay distinct.
  uint32_t F0ofA0 = P.fieldAlloc(0, 0), F0ofA1 = P.fieldAlloc(1, 0);
  uint32_t F1ofA0 = P.fieldAlloc(0, 1);
  EXPECT_EQ(R.AllocClass[F0ofA0], R.AllocClass[F0ofA1]);
  EXPECT_NE(R.AllocClass[F0ofA0], R.AllocClass[F1ofA0])
      << "distinct fields must not unify (field sensitivity)";
}

TEST(PointsToTest, AllSoundSystemsAgreeOnTinyPrograms) {
  for (const Program &P :
       {tinyAliasProgram(), tinyHeapProgram(), tinyFieldProgram()}) {
    AnalysisResult Eg = runPointsTo(P, System::Egglog);
    AnalysisResult Ni = runPointsTo(P, System::EgglogNI);
    AnalysisResult Pa = runPointsTo(P, System::Patched);
    AnalysisResult Er = runPointsTo(P, System::EqRelEncoding);
    EXPECT_EQ(Eg.AllocClass, Ni.AllocClass) << P.Name;
    EXPECT_EQ(Eg.AllocClass, Pa.AllocClass) << P.Name;
    EXPECT_EQ(Eg.AllocClass, Er.AllocClass) << P.Name;
  }
}

/// The paper's central result check: on these generated programs, egglog,
/// egglogNI, patched and eqrel compute the same allocation partition;
/// cclyzer++ (missing congruence) computes a finer or equal one. Patched
/// and eqrel agree only because no unification here runs through an empty
/// points-to set; in general their partitions are finer than egglog's
/// (PatchedRefinesEgglogThroughEmptyPointsToSets).
class SoundnessAgreementTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SoundnessAgreementTest, SoundSystemsAgreeOnGeneratedPrograms) {
  GeneratorOptions Opts;
  Opts.Seed = GetParam();
  Opts.Size = 80;
  Program P = generateProgram("prop", Opts);

  AnalysisResult Eg = runPointsTo(P, System::Egglog);
  AnalysisResult Ni = runPointsTo(P, System::EgglogNI);
  AnalysisResult Pa = runPointsTo(P, System::Patched, /*Timeout=*/30);
  AnalysisResult Er = runPointsTo(P, System::EqRelEncoding, /*Timeout=*/30);
  ASSERT_FALSE(Eg.TimedOut);
  EXPECT_EQ(Eg.AllocClass, Ni.AllocClass)
      << "semi-naïve and naïve egglog must agree (Theorem 4.1)";
  if (!Pa.TimedOut)
    EXPECT_EQ(Eg.AllocClass, Pa.AllocClass)
        << "patched Datalog encoding must agree with egglog";
  if (!Er.TimedOut)
    EXPECT_EQ(Eg.AllocClass, Er.AllocClass)
        << "eqrel Datalog encoding must agree with egglog";

  // cclyzer++ misses congruence, so its partition is never coarser.
  AnalysisResult Cc = runPointsTo(P, System::CClyzer);
  EXPECT_GE(Cc.numClasses(), Eg.numClasses())
      << "unsound cclyzer++ may only under-unify";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoundnessAgreementTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

TEST(PointsToTest, PatchedRefinesEgglogThroughEmptyPointsToSets) {
  // Egglog unifies through the fresh Obj that `vpt` or `contents` mints
  // for an empty points-to set; the Datalog rules need a non-empty set, so
  // on this program they miss a unification and split egglog's one class.
  GeneratorOptions Opts;
  Opts.Seed = 7;
  Opts.Size = 80;
  Program P = generateProgram("empty-sets", Opts);
  AnalysisResult Eg = runPointsTo(P, System::Egglog);
  AnalysisResult Pa = runPointsTo(P, System::Patched, /*Timeout=*/30);
  AnalysisResult Er = runPointsTo(P, System::EqRelEncoding, /*Timeout=*/30);
  ASSERT_FALSE(Eg.TimedOut);
  ASSERT_FALSE(Pa.TimedOut);
  ASSERT_FALSE(Er.TimedOut);
  EXPECT_TRUE(refines(Pa.AllocClass, Eg.AllocClass));
  EXPECT_GT(Pa.numClasses(), Eg.numClasses());
  EXPECT_TRUE(refines(Er.AllocClass, Eg.AllocClass));
}

/// Only match fans out; apply and rebuild are serial at every width, so
/// the analysis must reach the same database at 1 and at 4 threads.
class ThreadParityTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ThreadParityTest, EgglogResultsMatchAtOneAndFourThreads) {
  GeneratorOptions Opts;
  Opts.Seed = GetParam();
  Opts.Size = 80;
  Program P = generateProgram("parity", Opts);
  AnalysisResult One = runPointsTo(P, System::Egglog, 0, /*Threads=*/1);
  AnalysisResult Four = runPointsTo(P, System::Egglog, 0, /*Threads=*/4);
  ASSERT_FALSE(One.TimedOut);
  ASSERT_FALSE(Four.TimedOut);
  EXPECT_EQ(One.AllocClass, Four.AllocClass);
  EXPECT_EQ(One.ContentHash, Four.ContentHash);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThreadParityTest,
                         ::testing::Values(7u, 11u, 22u, 33u, 44u, 55u));

TEST(PointsToTest, EqRelRepresentationBlowsUp) {
  // The eqrel encoding's vpt grows far beyond egglog's (one entry per
  // variable) — the §6.1 space blow-up. On larger inputs it times out
  // outright, which demonstrates the same point even more strongly.
  GeneratorOptions Opts;
  Opts.Seed = 9;
  Opts.Size = 60;
  Program P = generateProgram("blowup", Opts);
  AnalysisResult Eg = runPointsTo(P, System::Egglog);
  AnalysisResult Er = runPointsTo(P, System::EqRelEncoding, /*Timeout=*/20);
  ASSERT_FALSE(Eg.TimedOut);
  if (Er.TimedOut)
    SUCCEED() << "eqrel timed out where egglog finished";
  else
    EXPECT_GT(Er.VptSize, Eg.VptSize)
        << "closing vpt under equivalence must materialize more tuples";
}

TEST(PointsToTest, TimeoutIsReported) {
  GeneratorOptions Opts;
  Opts.Seed = 5;
  Opts.Size = 4000;
  Program P = generateProgram("timeout", Opts);
  AnalysisResult R = runPointsTo(P, System::EqRelEncoding, /*Timeout=*/0.05);
  EXPECT_TRUE(R.TimedOut);
}
