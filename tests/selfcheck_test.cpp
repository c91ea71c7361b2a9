//===- tests/selfcheck_test.cpp - The load-time self-check's shortcut -----===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The §III-A self-check passes one function as both sides of the
/// refinement check, so on the concrete path it runs the source alone and
/// settles on the first trial where the source completes. These tests hold
/// that shortcut to the two-run check it replaces: on every function of
/// the paper listings, the near-miss seeds and the generated corpus, the
/// self-check's verdict equals checkRefinement(F, clone of F), which takes
/// the two-run path. Each file's testable-function list is pinned as the
/// two-run self-check produced it.
///
//===----------------------------------------------------------------------===//

#include "core/FuzzerLoop.h"
#include "corpus/Corpus.h"
#include "parser/Parser.h"
#include "tv/RefinementChecker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>

using namespace alive;

namespace {

struct CorpusFile {
  std::string Label;
  std::string Text;
};

/// The paper listings, the 33 near-miss seeds, then 200 generated files.
std::vector<CorpusFile> corpusFiles() {
  std::vector<CorpusFile> Files;
  const std::vector<std::string> &Listings = paperListingSeeds();
  for (size_t I = 0; I != Listings.size(); ++I)
    Files.push_back({"listing" + std::to_string(I), Listings[I]});
  for (const NearMissSeed &S : nearMissSeeds())
    Files.push_back({std::string("seed-") + S.IssueId, S.Text});
  std::vector<std::string> Generated = generateCorpusFiles(2024, 200);
  for (size_t I = 0; I != Generated.size(); ++I)
    Files.push_back({"test" + std::to_string(I) + ".ll", Generated[I]});
  return Files;
}

std::unique_ptr<Module> parseOk(const CorpusFile &File) {
  std::string Err;
  auto M = parseModule(File.Text, Err);
  EXPECT_NE(M, nullptr) << File.Label << ": " << Err;
  return M;
}

/// One file's testable-function list: its length and the FNV-1a hash of
/// the names, each followed by a newline.
struct Pin {
  unsigned Count;
  uint32_t Hash;
  bool operator==(const Pin &O) const {
    return Count == O.Count && Hash == O.Hash;
  }
};

Pin pinOf(const std::vector<std::string> &Names) {
  uint32_t H = 2166136261u;
  for (const std::string &N : Names)
    for (char C : N + "\n")
      H = (H ^ (uint8_t)C) * 16777619u;
  return {(unsigned)Names.size(), H};
}

// Captured with the two-run self-check, one entry per corpusFiles() entry.
// A change that moves a row changes which functions the fuzzer mutates.
const Pin GoldenPins[] = {
    {1, 0x874d5923}, {2, 0xd4c6d1ba}, {1, 0x95b12efc}, {1, 0x27757db7},
    {1, 0xd54c5907}, {1, 0x572536fe}, {1, 0x68ca48b3}, {1, 0x4ee9c5b0},
    {1, 0x835b0a02}, {1, 0xcd36b640}, {1, 0xa59283e5}, {1, 0x5ff3ed78},
    {1, 0x838ebef4}, {1, 0x233eaf42}, {1, 0xf992d0e0}, {1, 0xd8f42515},
    {1, 0x92534870}, {1, 0x427b8bfe}, {1, 0x835b6afb}, {1, 0x84a0c66c},
    {1, 0x56169298}, {1, 0x9fb98e22}, {1, 0x82f30920}, {1, 0x08d9c21c},
    {1, 0xa60601d9}, {1, 0x0ae14ebd}, {1, 0x3c28804a}, {1, 0x182153e3},
    {1, 0xdae0e5de}, {1, 0xfb3b005c}, {1, 0x047bf018}, {1, 0xcc5854b5},
    {1, 0x50ab9933}, {1, 0x417063ae}, {1, 0x9be8c369}, {1, 0xa657331e},
    {1, 0xb250b482}, {1, 0xbd49cb6d}, {1, 0x0fb7bb4f}, {1, 0xaacd27cd},
    {1, 0x874d5923}, {2, 0xd4c6d1ba}, {1, 0x95b12efc}, {1, 0x27757db7},
    {1, 0xd54c5907}, {1, 0x572536fe}, {1, 0x68ca48b3}, {1, 0xf2908d12},
    {1, 0xb5329dc5}, {2, 0xb3d9b960}, {2, 0x7d8cceb0}, {2, 0x882fed0e},
    {1, 0x2d28cd51}, {1, 0xf326336c}, {2, 0xe5fc9ce0}, {1, 0x13175b42},
    {1, 0x1493012f}, {2, 0xb3d9b960}, {2, 0x4397ad54}, {1, 0x1493012f},
    {3, 0xc3b22d08}, {1, 0x3927ed7a}, {2, 0xb3d9b960}, {1, 0x712cc2d0},
    {3, 0xc3b22d08}, {1, 0x1493012f}, {1, 0x1493012f}, {3, 0xa8e32cec},
    {1, 0x1493012f}, {1, 0x243699f0}, {1, 0x1493012f}, {3, 0xc3b22d08},
    {1, 0x2a2bef68}, {1, 0x1493012f}, {1, 0x1493012f}, {3, 0xc3b22d08},
    {2, 0xb3d9b960}, {2, 0x6b75df18}, {3, 0xc3b22d08}, {1, 0x1493012f},
    {1, 0x1493012f}, {3, 0x82d5219f}, {2, 0xb3d9b960}, {1, 0x1493012f},
    {3, 0xfe2bc1f6}, {3, 0x330a422b}, {3, 0xc3b22d08}, {1, 0x1493012f},
    {1, 0xf2908d12}, {1, 0x59d2176b}, {2, 0xb3d9b960}, {1, 0x1493012f},
    {1, 0xbfd973c2}, {2, 0xb3d9b960}, {1, 0x1493012f}, {2, 0xb3d9b960},
    {1, 0x49e53ec6}, {2, 0xb3d9b960}, {1, 0x91ea2d4c}, {2, 0xb3d9b960},
    {1, 0x1493012f}, {3, 0xc3b22d08}, {2, 0xb3d9b960}, {2, 0x246c0ea8},
    {1, 0x1493012f}, {2, 0xb3d9b960}, {2, 0xb3d9b960}, {1, 0x1493012f},
    {1, 0x1493012f}, {2, 0x99504f04}, {1, 0x9dade196}, {3, 0x6c1595b4},
    {3, 0xc3b22d08}, {3, 0xc3b22d08}, {3, 0xc3b22d08}, {1, 0x1493012f},
    {1, 0xb58c65e5}, {3, 0xc3b22d08}, {1, 0x758783f7}, {2, 0xb3d9b960},
    {3, 0xc3b22d08}, {1, 0xf37ffb8c}, {3, 0xc3b22d08}, {2, 0xb3d9b960},
    {1, 0x1493012f}, {1, 0x1493012f}, {1, 0x1493012f}, {1, 0x1493012f},
    {1, 0x336a707a}, {1, 0x1493012f}, {3, 0xc3b22d08}, {1, 0x1493012f},
    {1, 0x1493012f}, {2, 0xb3d9b960}, {1, 0x1493012f}, {1, 0x755e0c6d},
    {2, 0xb3d9b960}, {3, 0xc3b22d08}, {2, 0xc99cb984}, {2, 0xb3d9b960},
    {2, 0xb3d9b960}, {2, 0x9dd75827}, {3, 0xc3b22d08}, {1, 0x1493012f},
    {2, 0x82b0b4c4}, {2, 0x0e487ff0}, {1, 0x1493012f}, {2, 0x65719620},
    {2, 0xb3d9b960}, {3, 0xc3b22d08}, {1, 0x1493012f}, {3, 0xc3b22d08},
    {1, 0xed3a99e7}, {3, 0xc3b22d08}, {3, 0xc3b22d08}, {3, 0xccd158f1},
    {1, 0x1493012f}, {3, 0xc3b22d08}, {2, 0xb3d9b960}, {1, 0x98a5b471},
    {2, 0xb3d9b960}, {1, 0xe0aaa2f7}, {2, 0x391bea20}, {3, 0xc3b22d08},
    {3, 0xc3b22d08}, {1, 0x1493012f}, {2, 0xb3d9b960}, {1, 0x1493012f},
    {1, 0x1493012f}, {1, 0x0554d334}, {3, 0x6f076e94}, {1, 0x1493012f},
    {2, 0xb3d9b960}, {1, 0xa7c7afaf}, {1, 0x1493012f}, {3, 0xc3b22d08},
    {3, 0xc3b22d08}, {1, 0x1493012f}, {1, 0x1493012f}, {2, 0x2067881a},
    {1, 0x77c3086c}, {0, 0x811c9dc5}, {3, 0xc3b22d08}, {3, 0xc3b22d08},
    {3, 0xdb8a67ad}, {2, 0x18aa7b52}, {3, 0x6c1cb512}, {1, 0x1493012f},
    {1, 0x807c171f}, {3, 0xc3b22d08}, {2, 0xa35d6e9e}, {3, 0xc3b22d08},
    {1, 0xf87246ab}, {2, 0xe6a62120}, {3, 0xc3b22d08}, {3, 0xa40b90b5},
    {2, 0x7b8e44cc}, {3, 0x0ddfc1c0}, {1, 0x1493012f}, {2, 0xb3d9b960},
    {1, 0x1493012f}, {3, 0x9c64db34}, {2, 0xb3d9b960}, {1, 0x2be731a9},
    {3, 0xc3b22d08}, {3, 0xc3b22d08}, {1, 0x1493012f}, {0, 0x811c9dc5},
    {0, 0x811c9dc5}, {3, 0xc3b22d08}, {3, 0xd6c0d720}, {1, 0x8c6d5779},
    {1, 0x1493012f}, {1, 0x1493012f}, {3, 0x91af0b8c}, {3, 0xc3b22d08},
    {3, 0xc3b22d08}, {3, 0xc3b22d08}, {1, 0x03138396}, {2, 0xb3d9b960},
    {3, 0xc3b22d08}, {1, 0x1493012f}, {2, 0xb3d9b960}, {1, 0xcd1ffa87},
    {2, 0xcd8abd28}, {1, 0x45071f89}, {1, 0x1493012f}, {1, 0x1493012f},
    {2, 0xed5d39f2}, {1, 0x1493012f}, {2, 0xb3d9b960}, {2, 0x3f178d40},
    {2, 0xb3d9b960}, {3, 0xc3b22d08}, {3, 0xc3b22d08}, {3, 0xc3b22d08},
    {2, 0xb3d9b960}, {1, 0x1493012f}, {1, 0x367fb204}, {1, 0x1493012f},
};

} // namespace

TEST(SelfCheckTest, VerdictMatchesTwoRunCheck) {
  unsigned Functions = 0, Settled = 0, Enumerated = 0;
  for (const CorpusFile &File : corpusFiles()) {
    auto M = parseOk(File);
    ASSERT_NE(M, nullptr);
    auto Clone = cloneModule(*M);
    for (Function *F : M->functions()) {
      if (F->isDeclaration() || F->isIntrinsic())
        continue;
      TVResult Self = checkSelfRefinement(*F);
      TVResult TwoRun =
          checkRefinement(*F, *Clone->getFunction(F->getName()));
      EXPECT_EQ(tvVerdictName(Self.Verdict), tvVerdictName(TwoRun.Verdict))
          << File.Label << " @" << F->getName() << "\n  self-check: "
          << Self.Detail << "\n  two-run:    " << TwoRun.Detail;
      ++Functions;
      if (Self.Detail.find("self-check settled by trial") !=
          std::string::npos)
        ++Settled;
      else if (Self.UsedConcretePath &&
               Self.Verdict == TVVerdict::Inconclusive)
        ++Enumerated;
    }
  }
  std::printf("%u functions: %u settled early, %u enumerated every trial\n",
              Functions, Settled, Enumerated);
  // Both concrete outcomes of the shortcut must be exercised: settling on
  // a completed trial, and enumerating to the end when none completes.
  EXPECT_GT(Settled, 0u);
  EXPECT_GT(Enumerated, 0u);
}

TEST(SelfCheckTest, TestableFunctionsPinned) {
  std::vector<CorpusFile> Files = corpusFiles();
  std::vector<Pin> Actual;
  for (const CorpusFile &File : Files) {
    auto M = parseOk(File);
    ASSERT_NE(M, nullptr);
    FuzzerLoop Loop{FuzzOptions()};
    Loop.loadModule(std::move(M));
    Actual.push_back(pinOf(Loop.testableFunctions()));
  }
  const size_t NumGolden = std::size(GoldenPins);
  EXPECT_EQ(NumGolden, Files.size());
  bool Same = NumGolden == Files.size();
  for (size_t I = 0; I != std::min(NumGolden, Files.size()); ++I) {
    EXPECT_EQ(Actual[I].Count, GoldenPins[I].Count) << Files[I].Label;
    EXPECT_EQ(Actual[I].Hash, GoldenPins[I].Hash) << Files[I].Label;
    Same &= Actual[I] == GoldenPins[I];
  }
  if (!Same) {
    std::printf("actual pins:\n");
    for (size_t I = 0; I != Actual.size(); ++I)
      std::printf("%s{%u, 0x%08x},%s", I % 4 ? " " : "    ", Actual[I].Count,
                  Actual[I].Hash, I % 4 == 3 ? "\n" : "");
    std::printf("\n");
  }
}
