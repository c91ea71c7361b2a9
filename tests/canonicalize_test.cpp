//===- tests/canonicalize_test.cpp - Canonicalization + shared cache tests --===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Unit tests for the shared-cache key pipeline: canonicalizePair must map
/// alpha-renamed and commutative-operand-swapped variants of a pair onto
/// one canonical text (one cache key) while refusing pairs whose verdict
/// depends on module context, and SharedTVCache must behave as a bounded
/// sharded LRU that is safe to hammer from many threads — and, with one
/// shard, exactly as the TVCache it wraps.
///
//===----------------------------------------------------------------------===//

#include "tv/Canonicalize.h"
#include "tv/SharedTVCache.h"

#include "parser/Parser.h"

#include <gtest/gtest.h>
#include <random>
#include <thread>

using namespace alive;

namespace {

std::unique_ptr<Module> parseOk(const std::string &Src) {
  std::string Err;
  auto M = parseModule(Src, Err);
  EXPECT_NE(M, nullptr) << Err;
  return M;
}

/// Canonical source text of the pair (F, F) from a one-function module —
/// the common shape in these tests. The src and tgt clones differ only in
/// their fixed canonical names (refinement direction matters), so the
/// bodies must agree.
std::string canonSelf(const std::string &IR, const std::string &Name) {
  auto M = parseOk(IR);
  Function *F = M->getFunction(Name);
  EXPECT_NE(F, nullptr);
  CanonicalPair CP = canonicalizePair(*F, *F);
  EXPECT_NE(CP.M, nullptr);
  auto Body = [](const std::string &Text) {
    size_t NL = Text.find('\n');
    return NL == std::string::npos ? Text : Text.substr(NL + 1);
  };
  EXPECT_EQ(Body(CP.SrcText), Body(CP.TgtText));
  return CP.SrcText;
}

TVResult verdict(TVVerdict V, const std::string &Detail = "") {
  TVResult R;
  R.Verdict = V;
  R.Detail = Detail;
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// Canonicalization: structurally equal variants share one text.
//===----------------------------------------------------------------------===//

TEST(CanonicalizeTest, AlphaRenamedVariantsCanonicalizeIdentically) {
  std::string A = canonSelf(R"(
define i32 @f(i32 %x, i32 %y) {
entry:
  %sum = add i32 %x, %y
  %r = mul i32 %sum, %x
  ret i32 %r
}
)",
                            "f");
  // Same structure, every name different (function, args, block, insts).
  std::string B = canonSelf(R"(
define i32 @completely_other(i32 %a, i32 %b) {
bb0:
  %t0 = add i32 %a, %b
  %t1 = mul i32 %t0, %a
  ret i32 %t1
}
)",
                            "completely_other");
  EXPECT_EQ(A, B);
  // A structurally different function must not collide.
  std::string C = canonSelf(R"(
define i32 @f(i32 %x, i32 %y) {
  %sum = add i32 %x, %y
  %r = mul i32 %sum, %y
  ret i32 %r
}
)",
                            "f");
  EXPECT_NE(A, C);
}

TEST(CanonicalizeTest, CommutativeOperandSwapCanonicalizesIdentically) {
  // add/mul/and/or/xor: swapped operands are one canonical function.
  std::string A = canonSelf(R"(
define i32 @f(i32 %x) {
  %a = add i32 %x, 7
  %b = mul i32 %a, %x
  ret i32 %b
}
)",
                            "f");
  std::string B = canonSelf(R"(
define i32 @f(i32 %x) {
  %a = add i32 7, %x
  %b = mul i32 %x, %a
  ret i32 %b
}
)",
                            "f");
  EXPECT_EQ(A, B);
  // Non-commutative ops keep their operand order: a swapped sub is a
  // different function and must key differently.
  std::string Sub = canonSelf(R"(
define i32 @f(i32 %x, i32 %y) {
  %a = sub i32 %x, %y
  ret i32 %a
}
)",
                              "f");
  std::string SubSwapped = canonSelf(R"(
define i32 @f(i32 %x, i32 %y) {
  %a = sub i32 %y, %x
  ret i32 %a
}
)",
                                     "f");
  EXPECT_NE(Sub, SubSwapped);
}

TEST(CanonicalizeTest, ICmpPredicateMirrorCanonicalizesIdentically) {
  // icmp sgt %x, %y and icmp slt %y, %x are the same comparison.
  std::string A = canonSelf(R"(
define i1 @f(i32 %x, i32 %y) {
  %c = icmp sgt i32 %x, %y
  ret i1 %c
}
)",
                            "f");
  std::string B = canonSelf(R"(
define i1 @f(i32 %x, i32 %y) {
  %c = icmp slt i32 %y, %x
  ret i1 %c
}
)",
                            "f");
  EXPECT_EQ(A, B);
  // But sgt(x, y) is not slt(x, y): the mirrored pair must stay distinct.
  std::string C = canonSelf(R"(
define i1 @f(i32 %x, i32 %y) {
  %c = icmp slt i32 %x, %y
  ret i1 %c
}
)",
                            "f");
  EXPECT_NE(A, C);
}

TEST(CanonicalizeTest, PairRefusesCallsIntoDefinedFunctions) {
  // Same rule as TVCache::makeKey: a pair calling a defined non-intrinsic
  // depends on callee bodies its own text cannot capture.
  auto M = parseOk(R"(
declare i32 @ext(i32)

define i32 @callee(i32 %x) {
  ret i32 %x
}
define i32 @calls_defined(i32 %x) {
  %r = call i32 @callee(i32 %x)
  ret i32 %r
}
define i32 @calls_declared(i32 %x) {
  %r = call i32 @ext(i32 %x)
  ret i32 %r
}
)");
  Function *Defined = M->getFunction("calls_defined");
  Function *Declared = M->getFunction("calls_declared");
  EXPECT_EQ(canonicalizePair(*Defined, *Defined).M, nullptr);
  EXPECT_EQ(canonicalizePair(*Declared, *Defined).M, nullptr);
  // Declarations are modeled from the callee name, which canonicalization
  // must preserve — renaming @ext would change the environment oracle.
  CanonicalPair CP = canonicalizePair(*Declared, *Declared);
  ASSERT_NE(CP.M, nullptr);
  EXPECT_NE(CP.SrcText.find("@ext"), std::string::npos) << CP.SrcText;
}

TEST(CanonicalizeTest, CounterexampleArgumentsSurviveCanonicalization) {
  // The argument list (count, types, order) is what a counterexample binds
  // to; canonicalization may only rename, never reorder or retype.
  auto M = parseOk(R"(
define i32 @f(i32 %hi, i8 %lo) {
  %w = zext i8 %lo to i32
  %r = add i32 %hi, %w
  ret i32 %r
}
)");
  Function *F = M->getFunction("f");
  CanonicalPair CP = canonicalizePair(*F, *F);
  ASSERT_NE(CP.M, nullptr);
  ASSERT_EQ(CP.Src->getNumArgs(), F->getNumArgs());
  // Types are uniqued per module; compare the rendered type, not the
  // pointer.
  for (unsigned I = 0; I != F->getNumArgs(); ++I)
    EXPECT_EQ(CP.Src->getArg(I)->getType()->str(),
              F->getArg(I)->getType()->str());
}

//===----------------------------------------------------------------------===//
// SharedTVCache: sharded LRU semantics.
//===----------------------------------------------------------------------===//

TEST(SharedTVCacheTest, LookupReturnsInsertedVerdictByValue) {
  SharedTVCache C(64, 4);
  EXPECT_EQ(C.shardCount(), 4u);
  TVResult Out;
  EXPECT_FALSE(C.lookup("k1", Out));
  C.insert("k1", verdict(TVVerdict::Correct, "proved"));
  ASSERT_TRUE(C.lookup("k1", Out));
  EXPECT_EQ(Out.Verdict, TVVerdict::Correct);
  EXPECT_EQ(Out.Detail, "proved");
  EXPECT_EQ(C.size(), 1u);
}

TEST(SharedTVCacheTest, FirstWriterWinsOnRacedKeys) {
  SharedTVCache C(8, 1);
  C.insert("k", verdict(TVVerdict::Correct, "first"));
  C.insert("k", verdict(TVVerdict::Incorrect, "second"));
  TVResult Out;
  ASSERT_TRUE(C.lookup("k", Out));
  EXPECT_EQ(Out.Detail, "first");
  EXPECT_EQ(C.size(), 1u);
}

TEST(SharedTVCacheTest, ShardsEvictIndependentlyLRU) {
  // One shard of capacity 2: classic LRU behavior, recency refresh
  // included.
  SharedTVCache C(2, 1);
  EXPECT_FALSE(C.insert("a", verdict(TVVerdict::Correct)));
  EXPECT_FALSE(C.insert("b", verdict(TVVerdict::Correct)));
  TVResult Out;
  EXPECT_TRUE(C.lookup("a", Out)); // a becomes MRU; b is the victim
  EXPECT_TRUE(C.insert("c", verdict(TVVerdict::Correct)));
  EXPECT_TRUE(C.lookup("a", Out));
  EXPECT_FALSE(C.lookup("b", Out));
  EXPECT_TRUE(C.lookup("c", Out));
}

TEST(SharedTVCacheTest, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SharedTVCache(64, 3).shardCount(), 4u);
  EXPECT_EQ(SharedTVCache(64, 0).shardCount(), SharedTVCache::DefaultShards);
  // Capacity divides across shards, min 1 per shard.
  EXPECT_GE(SharedTVCache(1, 8).capacity(), 8u);
}

TEST(SharedTVCacheTest, MakeKeyMatchesCanonicalTextsAndOptions) {
  TVOptions Opts;
  std::string K1 = TVCache::makeKey("srcA", "tgtA", Opts);
  std::string K2 = TVCache::makeKey("srcA", "tgtB", Opts);
  std::string K3 = TVCache::makeKey("tgtA", "srcA", Opts);
  ASSERT_FALSE(K1.empty());
  EXPECT_NE(K1, K2);
  EXPECT_NE(K1, K3); // direction matters
  TVOptions P = Opts;
  P.ConcreteTrials = Opts.ConcreteTrials + 1; // steers the verdict -> new key
  EXPECT_NE(TVCache::makeKey("srcA", "tgtA", P), K1);
}

TEST(SharedTVCacheTest, OneShardMatchesTVCacheOnRandomTrace) {
  // A one-shard SharedTVCache must be a TVCache of the same capacity: the
  // fuzzing loop's per-worker cache is one, while perfbench's traced
  // replay drives a bare TVCache and requires identical hit, miss and
  // eviction counts. Feed both one randomized lookup/insert trace over a
  // key space larger than the capacity, so recency and eviction matter.
  TVCache Ref(4);
  SharedTVCache One(4, 1);
  std::mt19937_64 RNG(20241017);
  for (unsigned I = 0; I != 4000; ++I) {
    std::string Key = "k" + std::to_string(RNG() % 9);
    if (RNG() % 4 == 0) {
      // A bare insert, resident key or not.
      ASSERT_EQ(One.insert(Key, verdict(TVVerdict::Correct, Key)),
                Ref.insert(Key, verdict(TVVerdict::Correct, Key)))
          << "insert at step " << I;
      continue;
    }
    // The loop's sequence: lookup, and insert on a miss.
    TVResult Out;
    const TVResult *Hit = Ref.lookup(Key);
    ASSERT_EQ(One.lookup(Key, Out), Hit != nullptr) << "lookup at step " << I;
    if (Hit) {
      EXPECT_EQ(Out.Detail, Hit->Detail);
      continue;
    }
    ASSERT_EQ(One.insert(Key, verdict(TVVerdict::Correct, Key)),
              Ref.insert(Key, verdict(TVVerdict::Correct, Key)))
        << "insert after miss at step " << I;
  }
  ShardHeat H = One.shardHeat().at(0);
  EXPECT_EQ(H.Hits, Ref.stats().Hits);
  EXPECT_EQ(H.Misses, Ref.stats().Misses);
  EXPECT_EQ(H.Evictions, Ref.stats().Evictions);
  EXPECT_GT(Ref.stats().Evictions, 0u);
  EXPECT_GT(Ref.stats().Hits, 0u);
  EXPECT_EQ(One.size(), Ref.size());
}

TEST(SharedTVCacheTest, ConcurrentMixedUseIsSafe) {
  // 8 threads inserting/looking up an overlapping key space through a
  // deliberately tiny cache: exercises cross-shard concurrency, eviction
  // under contention, and the copy-out-by-value contract (TSan-checked in
  // sanitizer builds; here we assert every completed lookup is coherent).
  SharedTVCache C(32, 4);
  std::vector<std::thread> Threads;
  std::atomic<unsigned> Bad{0};
  for (unsigned T = 0; T != 8; ++T)
    Threads.emplace_back([&C, &Bad, T] {
      for (unsigned I = 0; I != 2000; ++I) {
        std::string Key = "key" + std::to_string((T * 7 + I) % 64);
        TVResult Out;
        if (C.lookup(Key, Out)) {
          if (Out.Detail != Key) // a hit must replay the inserted verdict
            ++Bad;
        } else {
          C.insert(Key, verdict(TVVerdict::Correct, Key));
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Bad.load(), 0u);
  EXPECT_LE(C.size(), C.capacity());
}
