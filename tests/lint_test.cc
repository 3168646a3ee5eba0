// Tests for src/lint: the lexer, each rule of the catalogue firing on a
// crafted snippet, NOLINT suppression, the cross-file harvests, the
// whole-program passes (include-graph layering/cycles and the
// parallel-region race detector), and the report shapes. Violation
// snippets live in string literals, so gelc_lint's self-run over tests/
// does not trip on its own fixtures.
#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "base/parallel.h"
#include "lint/layers.h"
#include "lint/lexer.h"
#include "lint/linter.h"
#include "lint/rules.h"

namespace gelc {
namespace lint {
namespace {

// --- Lexer ----------------------------------------------------------------

std::vector<std::string> TokenTexts(const LexResult& lex) {
  std::vector<std::string> out;
  out.reserve(lex.tokens.size());
  for (const Token& t : lex.tokens) out.push_back(t.text);
  return out;
}

TEST(LexerTest, IdentifiersNumbersPunct) {
  LexResult lex = Lex("int x = a1 + 0x1f; y->z::w;");
  EXPECT_EQ(TokenTexts(lex),
            (std::vector<std::string>{"int", "x", "=", "a1", "+", "0x1f", ";",
                                      "y", "->", "z", "::", "w", ";"}));
}

TEST(LexerTest, LineAndBlockCommentsProduceNoTokens) {
  LexResult lex = Lex("a // rest of line new delete\nb /* new\ndelete */ c");
  EXPECT_EQ(TokenTexts(lex), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(lex.tokens[1].line, 2);
  EXPECT_EQ(lex.tokens[2].line, 3);  // block comment advanced the line count
}

TEST(LexerTest, StringAndCharLiteralsAreOpaque) {
  // Banned tokens inside literals must not leak into the token stream.
  LexResult lex = Lex("f(\"new delete \\\" std::mutex\", 'x', '\\'');");
  ASSERT_EQ(lex.tokens.size(), 9u);
  EXPECT_EQ(lex.tokens[2].kind, TokenKind::kString);
  EXPECT_EQ(lex.tokens[2].text, "\"new delete \\\" std::mutex\"");
  EXPECT_EQ(lex.tokens[4].kind, TokenKind::kChar);
  EXPECT_EQ(lex.tokens[6].text, "'\\''");
}

TEST(LexerTest, RawStringsWithDelimiters) {
  LexResult lex = Lex("auto s = R\"x(rand( \")\" std::thread)x\"; k");
  ASSERT_GE(lex.tokens.size(), 5u);
  EXPECT_EQ(lex.tokens[3].kind, TokenKind::kString);
  EXPECT_EQ(lex.tokens[3].text, "R\"x(rand( \")\" std::thread)x\"");
  EXPECT_EQ(lex.tokens[5].text, "k");
}

TEST(LexerTest, PreprocessorLinesAreSkippedIncludingContinuations) {
  LexResult lex = Lex(
      "#include <thread>\n"
      "#define BAD(x) new x \\\n"
      "    delete x\n"
      "real;");
  EXPECT_EQ(TokenTexts(lex), (std::vector<std::string>{"real", ";"}));
  EXPECT_EQ(lex.tokens[0].line, 4);
}

TEST(LexerTest, NolintBareAndWithRules) {
  LexResult lex = Lex(
      "a; // NOLINT\n"
      "b; // NOLINT(raw-thread, banned-alloc)\n"
      "c; /* NOLINT(nondeterminism) */\n"
      "d;\n");
  ASSERT_TRUE(lex.nolint.count(1));
  EXPECT_TRUE(lex.nolint.at(1).empty());  // bare: suppress everything
  ASSERT_TRUE(lex.nolint.count(2));
  EXPECT_EQ(lex.nolint.at(2).size(), 2u);
  EXPECT_TRUE(lex.nolint.at(2).count("raw-thread"));
  EXPECT_TRUE(lex.nolint.at(2).count("banned-alloc"));
  ASSERT_TRUE(lex.nolint.count(3));
  EXPECT_TRUE(lex.nolint.at(3).count("nondeterminism"));
  EXPECT_FALSE(lex.nolint.count(4));
}

TEST(LexerTest, NolintNextLine) {
  LexResult lex = Lex(
      "// NOLINTNEXTLINE(banned-alloc)\n"
      "int* p = new int;\n");
  EXPECT_FALSE(lex.nolint.count(1));
  ASSERT_TRUE(lex.nolint.count(2));
  EXPECT_TRUE(lex.nolint.at(2).count("banned-alloc"));
}

TEST(LexerTest, NolintNextLineBindsToNextTokenBearingLine) {
  // Blank lines and further comments between the marker and the code do
  // not swallow the suppression.
  LexResult lex = Lex(
      "// NOLINTNEXTLINE(banned-alloc)\n"
      "\n"
      "// rationale continues here\n"
      "int* p = new int;\n");
  EXPECT_FALSE(lex.nolint.count(2));
  EXPECT_FALSE(lex.nolint.count(3));
  ASSERT_TRUE(lex.nolint.count(4));
  EXPECT_TRUE(lex.nolint.at(4).count("banned-alloc"));
}

TEST(LexerTest, NolintNextLineAtEndOfFileSuppressesNothing) {
  LexResult lex = Lex("int x;\n// NOLINTNEXTLINE\n");
  EXPECT_TRUE(lex.nolint.empty());
}

TEST(LexerTest, HarvestsIncludeDirectives) {
  LexResult lex = Lex(
      "#include \"lint/lexer.h\"\n"
      "#include <vector>\n"
      "  #include \"base/status.h\"  // trailing comment\n"
      "#define NOT_AN_INCLUDE \"x.h\"\n");
  ASSERT_EQ(lex.includes.size(), 3u);
  EXPECT_EQ(lex.includes[0].path, "lint/lexer.h");
  EXPECT_FALSE(lex.includes[0].angled);
  EXPECT_EQ(lex.includes[0].line, 1);
  EXPECT_EQ(lex.includes[1].path, "vector");
  EXPECT_TRUE(lex.includes[1].angled);
  EXPECT_EQ(lex.includes[2].path, "base/status.h");
  EXPECT_EQ(lex.includes[2].line, 3);
}

// --- Rule firing ----------------------------------------------------------

std::vector<Diagnostic> RunOn(const std::string& path,
                              const std::string& source,
                              StatusFunctionSet status_fns = {}) {
  return LintSource(path, source, status_fns);
}

std::vector<std::string> RulesOf(const std::vector<Diagnostic>& diags) {
  std::vector<std::string> out;
  for (const Diagnostic& d : diags) out.push_back(d.rule);
  return out;
}

TEST(RulesTest, RawThreadFiresOutsideParallel) {
  auto diags = RunOn("src/wl/kwl.cc", "std::thread t(f); std::mutex mu;");
  EXPECT_EQ(RulesOf(diags),
            (std::vector<std::string>{"raw-thread", "raw-thread"}));
}

TEST(RulesTest, RawThreadExemptInBaseParallel) {
  EXPECT_TRUE(RunOn("src/base/parallel.cc", "std::thread t(f);").empty());
  EXPECT_TRUE(RunOn("src/base/parallel.h", "std::mutex mu;").empty());
  // ...but a file merely *named* parallel elsewhere is not exempt.
  EXPECT_FALSE(RunOn("src/gnn/parallel.cc", "std::thread t(f);").empty());
}

TEST(RulesTest, RawThreadExemptUnderObs) {
  EXPECT_TRUE(RunOn("src/obs/metrics.cc", "std::mutex mu;").empty());
  EXPECT_TRUE(RunOn("src/obs/trace.cc", "std::mutex mu;").empty());
  // The obs *tests* are not exempt — only the library directory is.
  EXPECT_FALSE(RunOn("tests/obs_test.cc", "std::mutex mu;").empty());
}

TEST(RulesTest, AdhocTimingFiresOutsideObsAndBench) {
  auto diags = RunOn(
      "src/wl/kwl.cc",
      "auto t0 = std::chrono::steady_clock::now();\n"
      "auto t1 = std::chrono::high_resolution_clock::now();\n"
      "auto t2 = std::chrono::system_clock::now();");
  EXPECT_EQ(RulesOf(diags),
            (std::vector<std::string>{"adhoc-timing", "adhoc-timing",
                                      "adhoc-timing"}));
  // Namespace aliases don't dodge the rule: the bare identifier matches.
  EXPECT_EQ(RunOn("src/a.cc",
                  "namespace ch = std::chrono; auto t = "
                  "ch::steady_clock::now();")
                .size(),
            1u);
}

TEST(RulesTest, AdhocTimingExemptInClockTUsBenchAndNolint) {
  EXPECT_TRUE(
      RunOn("src/obs/trace.cc", "std::chrono::steady_clock::now();").empty());
  // The timing plane reads no clock: its series are fed by the scopes in
  // obs/trace.cc.
  EXPECT_EQ(
      RunOn("src/obs/timing.cc", "std::chrono::steady_clock::now();").size(),
      1u);
  EXPECT_TRUE(
      RunOn("bench/bench_e12.cc", "std::chrono::steady_clock::now();")
          .empty());
  EXPECT_TRUE(RunOn("src/a.cc",
                    "auto t = std::chrono::steady_clock::now();  "
                    "// NOLINT(adhoc-timing)")
                  .empty());
}

TEST(RulesTest, AdhocTimingFiresInRestOfObs) {
  // Only the clock-owning TU is exempt; a stopwatch anywhere else
  // in src/obs (the deterministic plane) violates the doctrine.
  EXPECT_EQ(RunOn("src/obs/metrics.cc",
                  "auto t = std::chrono::steady_clock::now();")
                .size(),
            1u);
  EXPECT_EQ(RunOn("src/obs/snapshot.cc",
                  "auto t = std::chrono::system_clock::now();")
                .size(),
            1u);
  // The headers are deterministic-plane surface too.
  EXPECT_EQ(RunOn("src/obs/timing.h",
                  "auto t = std::chrono::steady_clock::now();")
                .size(),
            1u);
}

TEST(RulesTest, NondeterminismRandSrandTimeRandomDevice) {
  auto diags = RunOn("src/a.cc",
                     "int a = rand(); srand(7); std::random_device rd; "
                     "auto t0 = time(nullptr); auto t1 = time(NULL);");
  EXPECT_EQ(diags.size(), 5u);
  for (const auto& d : diags) EXPECT_EQ(d.rule, "nondeterminism");
}

TEST(RulesTest, NondeterminismArglessMt19937) {
  EXPECT_EQ(RunOn("src/a.cc", "std::mt19937 gen;").size(), 1u);
  EXPECT_EQ(RunOn("src/a.cc", "std::mt19937 gen{};").size(), 1u);
  EXPECT_EQ(RunOn("src/a.cc", "auto g = std::mt19937();").size(), 1u);
  EXPECT_EQ(RunOn("src/a.cc", "std::mt19937_64 gen;").size(), 1u);
  // Explicitly seeded engines are fine.
  EXPECT_TRUE(RunOn("src/a.cc", "std::mt19937 gen(seed);").empty());
  EXPECT_TRUE(RunOn("src/a.cc", "std::mt19937 gen{42};").empty());
}

TEST(RulesTest, NondeterminismExemptInRngHeader) {
  EXPECT_TRUE(RunOn("src/base/rng.h", "std::random_device rd;").empty());
}

TEST(RulesTest, NondeterminismNotFooledByMembersNamedRand) {
  EXPECT_TRUE(RunOn("src/a.cc", "double x = dist.rand();").empty());
  EXPECT_TRUE(RunOn("src/a.cc", "obj->time(nullptr);").empty());
}

TEST(RulesTest, BannedAllocNewDelete) {
  auto diags = RunOn("src/a.cc", "int* p = new int[3]; delete[] p;");
  EXPECT_EQ(RulesOf(diags),
            (std::vector<std::string>{"banned-alloc", "banned-alloc"}));
}

TEST(RulesTest, BannedAllocAllowsDeletedFunctionsAndPlacement) {
  EXPECT_TRUE(RunOn("src/a.h", "Foo(const Foo&) = delete;").empty());
  EXPECT_TRUE(RunOn("src/a.cc", "new (buf) Foo(1);").empty());
  EXPECT_TRUE(
      RunOn("src/a.h", "void* operator new(std::size_t);").empty());
}

TEST(RulesTest, IntrinsicsFireOutsideTensorSimd) {
  auto diags = RunOn("src/gnn/mpnn.cc",
                     "__m256d acc = _mm256_loadu_pd(p);\n"
                     "acc = _mm256_add_pd(acc, acc);");
  EXPECT_EQ(RulesOf(diags),
            (std::vector<std::string>{"intrinsics-outside-tensor",
                                      "intrinsics-outside-tensor",
                                      "intrinsics-outside-tensor"}));
  // SSE and AVX-512 spellings are covered too, including a tensor/ file
  // that is not part of the simd family.
  EXPECT_EQ(RunOn("src/tensor/matrix.cc", "__m128 v; _mm_prefetch(p, 0);")
                .size(),
            2u);
  EXPECT_EQ(RunOn("src/core/plan_exec.cc", "__m512d z = _mm512_setzero_pd();")
                .size(),
            2u);
}

TEST(RulesTest, IntrinsicsExemptInTensorSimdFamily) {
  EXPECT_TRUE(
      RunOn("src/tensor/simd_avx2.cc", "__m256d v = _mm256_set1_pd(1.0);")
          .empty());
  EXPECT_TRUE(RunOn("src/tensor/simd.cc", "_mm_prefetch(p, 0);").empty());
  EXPECT_TRUE(RunOn("src/tensor/simd.h", "__m256d v;").empty());
  // A simd-prefixed file outside tensor/ is not exempt.
  EXPECT_FALSE(RunOn("src/base/simd_util.h", "__m256d v;").empty());
}

TEST(RulesTest, IntrinsicsNotFooledByLookalikes) {
  // Ordinary identifiers that merely start with _m or mention simd.
  EXPECT_TRUE(
      RunOn("src/a.cc", "int _max = 3; auto simd_mode = GetSimdMode();")
          .empty());
  // Preprocessor lines are skipped by the lexer, so a include-guard-style
  // macro mentioning __m256 in a comment or #define doesn't fire.
  EXPECT_TRUE(RunOn("src/a.cc", "#define HAS__m256 1\n// __m256d docs\n")
                  .empty());
}

TEST(RulesTest, IncludeHygieneOnlyInHeaders) {
  EXPECT_EQ(RunOn("src/a.h", "using namespace std;").size(), 1u);
  EXPECT_EQ(RunOn("src/a.h", "using namespace std;")[0].rule,
            "include-hygiene");
  EXPECT_TRUE(RunOn("src/a.cc", "using namespace std;").empty());
  // `using std::swap;` is fine even in headers.
  EXPECT_TRUE(RunOn("src/a.h", "using std::swap;").empty());
}

TEST(RulesTest, DenseAdjacencyOnlyUnderGnn) {
  const std::string src = "Matrix a = g.AdjacencyMatrix();";
  ASSERT_EQ(RunOn("src/gnn/mpnn.cc", src).size(), 1u);
  EXPECT_EQ(RunOn("src/gnn/mpnn.cc", src)[0].rule,
            "dense-adjacency-in-hot-path");
  EXPECT_EQ(RunOn("src/gnn/gat.h",
                  "Matrix m = g.MeanAdjacencyMatrix();").size(),
            1u);
  // The same call outside src/gnn is the sanctioned dense path.
  EXPECT_TRUE(RunOn("src/hom/hom_count.cc", src).empty());
}

TEST(RulesTest, CsrRebuildInStreamPathOnlyInUpdateLog) {
  const std::string src = "const CsrGraph& c = g.Csr(); c.adjacency();";
  ASSERT_EQ(RunOn("src/graph/update_log.cc", src).size(), 1u);
  EXPECT_EQ(RunOn("src/graph/update_log.cc", src)[0].rule,
            "csr-rebuild-in-stream-path");
  EXPECT_EQ(RunOn("src/graph/update_log.h",
                  "Matrix a = g.AdjacencyMatrix();")[0]
                .rule,
            "csr-rebuild-in-stream-path");
  EXPECT_EQ(RunOn("src/graph/update_log.cc",
                  "Matrix m = g.MeanAdjacencyMatrix();")
                .size(),
            1u);
  // The same calls anywhere else — including the rest of graph/ and the
  // stream tests/tools, where the rebuild-on-read path is the subject
  // under test — are the sanctioned snapshot API.
  EXPECT_TRUE(RunOn("src/graph/graph.cc", src).empty());
  EXPECT_TRUE(RunOn("tests/stream_test.cc", src).empty());
  EXPECT_TRUE(RunOn("tools/gelc_stream.cc", src).empty());
  // A mention without a call (e.g. in a comment-adjacent identifier
  // position such as `Csr` in a doc string) only fires when followed by
  // an argument list.
  EXPECT_TRUE(
      RunOn("src/graph/update_log.cc", "int Csr = 0; Csr += 1;").empty());
  // NOLINT waives it like every other rule.
  EXPECT_TRUE(RunOn("src/graph/update_log.cc",
                    "g.Csr();  // NOLINT(csr-rebuild-in-stream-path)")
                  .empty());
}

TEST(RulesTest, SegmentIndexingOnlyUnderGnn) {
  const std::string ids = "size_t s = batch.segment_ids()[v];";
  const std::string offs = "size_t lo = batch.vertex_offsets()[i + 1];";
  ASSERT_EQ(RunOn("src/gnn/trainable.cc", ids).size(), 1u);
  EXPECT_EQ(RunOn("src/gnn/trainable.cc", ids)[0].rule,
            "segment-boundary-indexing");
  EXPECT_EQ(RunOn("src/gnn/mpnn.cc", offs).size(), 1u);
  // GraphBatch itself (and tests/tools) may index its backing vectors.
  EXPECT_TRUE(RunOn("src/graph/batch.cc", ids).empty());
  EXPECT_TRUE(RunOn("tests/batch_test.cc", offs).empty());
}

TEST(RulesTest, SegmentIndexingAllowsAccessorsAndPassThrough) {
  // Passing the offsets vector whole to a segment op is the sanctioned
  // pattern; only `()[` — a raw element read — crosses a boundary.
  EXPECT_TRUE(
      RunOn("src/gnn/trainable.cc",
            "ValueId p = tape->SegmentSum(z, batch.vertex_offsets());")
          .empty());
  EXPECT_TRUE(RunOn("src/gnn/trainable.cc",
                    "size_t lo = batch.graph_offset(i);")
                  .empty());
  // NOLINT waives it like any other rule.
  EXPECT_TRUE(RunOn("src/gnn/trainable.cc",
                    "size_t s = batch.segment_ids()[v];  "
                    "// NOLINT(segment-boundary-indexing)")
                  .empty());
}

TEST(RulesTest, UncheckedStatusBareCallStatement) {
  StatusFunctionSet fns = {"AddEdge"};
  auto diags = RunOn("src/a.cc", "void f(Graph& g) { g.AddEdge(0, 1); }",
                     fns);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "unchecked-status");
}

TEST(RulesTest, UncheckedStatusVoidCast) {
  StatusFunctionSet fns = {"AddEdge"};
  auto diags =
      RunOn("src/a.cc", "void f(Graph& g) { (void)g.AddEdge(0, 1); }", fns);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "unchecked-status");
}

TEST(RulesTest, UncheckedStatusNotFiredWhenHandled) {
  StatusFunctionSet fns = {"AddEdge", "RelationGraph"};
  const char* ok_sources[] = {
      "Status s = g.AddEdge(0, 1);",
      "if (!g.AddEdge(0, 1).ok()) return;",
      "return g.AddEdge(0, 1);",
      "GELC_RETURN_NOT_OK(g.AddEdge(0, 1));",
      "EXPECT_TRUE(g.AddEdge(0, 1).ok());",
      "g.AddEdge(0, 1).IgnoreError();",
      "GELC_CHECK_OK(g.AddEdge(0, 1));",
      "auto r = a.RelationGraph(0);",
  };
  for (const char* src : ok_sources) {
    EXPECT_TRUE(RunOn("src/a.cc", src, fns).empty()) << src;
  }
}

TEST(RulesTest, UncheckedStatusSkipsMacroHeadedBuilderChains) {
  // Expr::Apply returns Result<ExprPtr>, but google-benchmark's
  // `BENCHMARK(f)->Apply(config);` is a registration builder, not a
  // discard. Macro-shaped statement heads are exempt.
  StatusFunctionSet fns = {"Apply"};
  EXPECT_TRUE(
      RunOn("bench/b.cc", "BENCHMARK(BM_X)->Apply(cfg);", fns).empty());
  // The same chain off a normal identifier still fires.
  EXPECT_EQ(RunOn("src/a.cc", "maker(x)->Apply(cfg);", fns).size(), 1u);
}

TEST(RulesTest, UncheckedStatusInsideLambdaBody) {
  StatusFunctionSet fns = {"AddEdge"};
  auto diags = RunOn("src/a.cc",
                     "auto fn = [&] { g.AddEdge(0, 1); return 3; };", fns);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "unchecked-status");
}

// --- Status-function harvesting -------------------------------------------

TEST(HarvestTest, CollectsStatusAndResultDeclarations) {
  LexResult lex = Lex(
      "Status AddEdge(VertexId u, VertexId v);\n"
      "Result<Graph> Permuted(const std::vector<size_t>& perm) const;\n"
      "Status RelationalGraph::AddRelEdge(size_t r) { return Status::OK(); }\n"
      "Result<std::vector<int>> Nested();\n"
      "bool ok() const;\n"
      "Status status() const;\n");
  StatusFunctionSet set;
  CollectStatusFunctionsFromTokens(lex.tokens, &set);
  EXPECT_TRUE(set.count("AddEdge"));
  EXPECT_TRUE(set.count("Permuted"));
  EXPECT_TRUE(set.count("AddRelEdge"));
  EXPECT_TRUE(set.count("Nested"));
  EXPECT_TRUE(set.count("status"));
  EXPECT_FALSE(set.count("ok"));
}

TEST(HarvestTest, CollectsTemplateQualifiedDefinitions) {
  LexResult lex = Lex(
      "Status Builder<T>::Finish(int x) { return Status::OK(); }\n"
      "Result<int> Cache<K, V>::Lookup(const K& k);\n"
      "Status a < b;\n");  // comparison, not a declarator
  StatusFunctionSet set;
  CollectStatusFunctionsFromTokens(lex.tokens, &set);
  EXPECT_TRUE(set.count("Finish"));
  EXPECT_TRUE(set.count("Lookup"));
  EXPECT_EQ(set.size(), 2u);
}

TEST(HarvestTest, CollectsGuardedByAnnotations) {
  LexResult lex = Lex(
      "std::set<int> seen GELC_GUARDED_BY(mu);\n"
      "int plain = 0;\n");
  std::unordered_map<std::string, std::string> map;
  CollectGuardedByFromTokens(lex.tokens, &map);
  ASSERT_TRUE(map.count("seen"));
  EXPECT_EQ(map.at("seen"), "mu");
  EXPECT_EQ(map.size(), 1u);
}

TEST(HarvestTest, CollectsAtomicDeclarations) {
  LexResult lex = Lex(
      "std::atomic<int> calls{0};\n"
      "std::atomic<std::pair<int, int>> pair_box;\n"
      "atomic_thread_fence(order);\n");
  std::unordered_set<std::string> vars;
  CollectAtomicVarsFromTokens(lex.tokens, &vars);
  EXPECT_TRUE(vars.count("calls"));
  EXPECT_TRUE(vars.count("pair_box"));
  EXPECT_EQ(vars.size(), 2u);
}

// --- Parallel-region race detector ----------------------------------------

TEST(RaceTest, FlagsUnguardedByRefWrite) {
  auto diags = RunOn("src/a.cc",
                     "void f() {\n"
                     "  double acc = 0.0;\n"
                     "  ParallelFor(0, n, 1, [&](size_t b, size_t e) {\n"
                     "    for (size_t i = b; i < e; ++i) acc += 1.0;\n"
                     "  });\n"
                     "}\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "parallel-region-race");
  EXPECT_EQ(diags[0].line, 4);
  EXPECT_NE(diags[0].message.find("'acc'"), std::string::npos);
}

TEST(RaceTest, AcceptsShardIndexedWrites) {
  // Subscripts and call arguments naming a loop variable (or any body
  // local) make the write disjoint per index.
  EXPECT_TRUE(RunOn("src/a.cc",
                    "void f(std::vector<double>& out, Matrix& k) {\n"
                    "  ParallelFor(0, n, 1, [&](size_t b, size_t e) {\n"
                    "    for (size_t i = b; i < e; ++i) {\n"
                    "      out[i] = 1.0;\n"
                    "      k.At(i, 0) = 2.0;\n"
                    "    }\n"
                    "  });\n"
                    "}\n")
                  .empty());
}

TEST(RaceTest, AcceptsAtomicWrites) {
  EXPECT_TRUE(RunOn("src/a.cc",
                    "void f() {\n"
                    "  std::atomic<long> sum{0};\n"
                    "  std::atomic<int> calls{0};\n"
                    "  ParallelFor(0, n, 1, [&](size_t b, size_t e) {\n"
                    "    long local = 0;\n"
                    "    sum.fetch_add(local);\n"
                    "    ++calls;\n"
                    "  });\n"
                    "}\n")
                  .empty());
}

TEST(RaceTest, GuardedByAcceptedOnlyWithLockInRegion) {
  const std::string decl =
      "std::mutex mu;  // NOLINT(raw-thread)\n"
      "std::set<int> seen GELC_GUARDED_BY(mu);\n";
  EXPECT_TRUE(
      RunOn("src/a.cc",
            decl +
                "void f() {\n"
                "  ParallelFor(0, n, 1, [&](size_t b, size_t e) {\n"
                "    std::lock_guard<std::mutex> lock(mu);  "
                "// NOLINT(raw-thread)\n"
                "    seen.insert(0);\n"
                "  });\n"
                "}\n")
          .empty());
  auto bad = RunOn("src/a.cc",
                   decl +
                       "void f() {\n"
                       "  ParallelFor(0, n, 1, [&](size_t b, size_t e) {\n"
                       "    seen.insert(0);\n"
                       "  });\n"
                       "}\n");
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0].rule, "parallel-region-race");
  EXPECT_NE(bad[0].message.find("without locking"), std::string::npos);
}

TEST(RaceTest, ResolvesNamedLambdaArguments) {
  auto diags = RunOn("src/a.cc",
                     "void f() {\n"
                     "  double acc = 0.0;\n"
                     "  auto body = [&](size_t b, size_t e) { acc += 1.0; };\n"
                     "  ParallelFor(0, n, 1, body);\n"
                     "}\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "parallel-region-race");
  EXPECT_EQ(diags[0].line, 3);
}

TEST(RaceTest, ByValueCapturesAreNotFlagged) {
  EXPECT_TRUE(RunOn("src/a.cc",
                    "void f() {\n"
                    "  int snapshot = 3;\n"
                    "  int shadow = 4;\n"
                    "  ParallelFor(0, n, 1,\n"
                    "              [=](size_t b, size_t e) mutable {\n"
                    "                snapshot += 1;\n"
                    "              });\n"
                    "  ParallelFor(0, n, 1, [&, shadow](size_t b,\n"
                    "                                   size_t e) mutable {\n"
                    "    shadow += 1;\n"
                    "  });\n"
                    "}\n")
                  .empty());
}

TEST(RaceTest, NolintSuppressesRaceFindings) {
  EXPECT_TRUE(RunOn("src/a.cc",
                    "void f() {\n"
                    "  double acc = 0.0;\n"
                    "  ParallelFor(0, n, 1, [&](size_t b, size_t e) {\n"
                    "    acc += 1.0;  // NOLINT(parallel-region-race)\n"
                    "  });\n"
                    "}\n")
                  .empty());
}

// --- Whole-program pipeline -----------------------------------------------

TEST(ProgramTest, CrossFileStatusHarvest) {
  std::vector<SourceFile> files = {
      {"src/graph/graph.h", "Status AddEdge(VertexId u, VertexId v);\n"},
      {"src/a.cc", "void f(Graph& g) { g.AddEdge(0, 1); }\n"},
  };
  auto diags = LintProgram(files);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "unchecked-status");
  EXPECT_EQ(diags[0].file, "src/a.cc");
}

TEST(ProgramTest, LayeringViolationFlagged) {
  std::vector<SourceFile> files = {
      {"src/base/low.h", "#include \"tensor/high.h\"\n"},
      {"src/tensor/high.h", "\n"},
  };
  auto diags = LintProgram(files);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "include-layering");
  EXPECT_EQ(diags[0].file, "src/base/low.h");
  EXPECT_EQ(diags[0].line, 1);
  EXPECT_NE(diags[0].message.find("base/low.h -> tensor/high.h"),
            std::string::npos);
  // Models under src/gnn hold weights; running them, through the
  // interpreter or a plan, belongs to core/, one layer up.
  files = {
      {"src/gnn/model.cc", "#include \"core/eval.h\"\n"},
      {"src/core/eval.h", "\n"},
  };
  diags = LintProgram(files);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "include-layering");
  EXPECT_NE(diags[0].message.find("gnn/model.cc -> core/eval.h"),
            std::string::npos);
}

TEST(ProgramTest, IncludeCycleFlagged) {
  std::vector<SourceFile> files = {
      {"src/graph/a.h", "#include \"graph/b.h\"\n"},
      {"src/graph/b.h", "#include \"graph/a.h\"\n"},
  };
  auto diags = LintProgram(files);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "include-cycle");
  EXPECT_NE(
      diags[0].message.find("graph/a.h -> graph/b.h -> graph/a.h"),
      std::string::npos);
}

TEST(ProgramTest, SameRankAndDownwardIncludesAllowed) {
  // wl and hom share a rank; graph sits below both; system headers and
  // unresolved quoted includes are ignored.
  std::vector<SourceFile> files = {
      {"src/wl/kernel.h",
       "#include <vector>\n"
       "#include \"hom/count.h\"\n"
       "#include \"graph/graph.h\"\n"
       "#include \"not/in/the/set.h\"\n"},
      {"src/hom/count.h", "\n"},
      {"src/graph/graph.h", "\n"},
  };
  EXPECT_TRUE(LintProgram(files).empty());
}

TEST(ProgramTest, NolintSuppressesLayeringFinding) {
  std::vector<SourceFile> files = {
      {"src/base/low.h",
       "#include \"tensor/high.h\"  // NOLINT(include-layering)\n"},
      {"src/tensor/high.h", "\n"},
  };
  EXPECT_TRUE(LintProgram(files).empty());
}

TEST(ProgramTest, RuleFilterKeepsOnlyNamedRules) {
  std::vector<SourceFile> files = {
      {"src/base/low.h", "#include \"tensor/high.h\"\n"},
      {"src/tensor/high.h", "int* p = new int;\n"},
  };
  EXPECT_EQ(LintProgram(files).size(), 2u);
  LintOptions opts;
  opts.rules = {"include-layering"};
  auto diags = LintProgram(files, opts);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "include-layering");
}

TEST(ProgramTest, ReportIdenticalAtAnyThreadCount) {
  // The lint report must be byte-identical however the harvest and
  // per-file passes are sharded — same contract as the numeric kernels.
  std::vector<SourceFile> files;
  for (int i = 0; i < 12; ++i) {
    files.push_back(SourceFile{
        "src/f" + std::to_string(i) + ".cc",
        "int* p" + std::to_string(i) + " = new int;\n"});
  }
  files.push_back(SourceFile{"src/base/low.h",
                             "#include \"tensor/high.h\"\n"});
  files.push_back(SourceFile{"src/tensor/high.h", "\n"});
  std::string serial, parallel;
  {
    SetParallelThreadCount(1);
    serial = FormatText(LintProgram(files));
  }
  {
    SetParallelThreadCount(4);
    parallel = FormatText(LintProgram(files));
  }
  SetParallelThreadCount(0);
  EXPECT_NE(serial.find("13 findings"), std::string::npos);
  EXPECT_EQ(serial, parallel);
}

// --- Layer table ----------------------------------------------------------

TEST(LayersTest, RanksFollowTheDeclaredOrder) {
  std::string module;
  EXPECT_EQ(LayerRank("src/base/status.h", &module), 0);
  EXPECT_EQ(module, "base");
  EXPECT_LT(LayerRank("src/obs/metrics.h", &module),
            LayerRank("src/tensor/matrix.h", &module));
  EXPECT_LT(LayerRank("src/gnn/mpnn.cc", &module),
            LayerRank("src/core/plan.h", &module));
  // wl and hom share a rank; all app-tier directories share the top one.
  EXPECT_EQ(LayerRank("src/wl/kwl.cc", &module),
            LayerRank("src/hom/hom_count.cc", &module));
  EXPECT_EQ(LayerRank("tests/lint_test.cc", &module),
            LayerRank("tools/gelc_lint.cc", &module));
  EXPECT_GT(LayerRank("tests/lint_test.cc", &module),
            LayerRank("src/separation/separation.h", &module));
  // Files outside the layered tree are exempt.
  EXPECT_EQ(LayerRank("README.md", &module), -1);
}

TEST(LayersTest, EveryGroupModuleRoundTrips) {
  for (const auto& group : LayerGroups()) {
    for (const std::string& m : group) {
      std::string module;
      int rank = LayerRank("src/" + m + "/file.h", &module);
      EXPECT_GE(rank, 0) << m;
      EXPECT_EQ(module, m);
    }
  }
  EXPECT_NE(LayerOrderDescription().find("base < obs"), std::string::npos);
}

// --- NOLINT suppression ---------------------------------------------------

TEST(SuppressionTest, BareNolintSuppressesEverythingOnTheLine) {
  auto diags =
      RunOn("src/a.cc", "int* p = new int; // NOLINT\nint* q = new int;");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 2);
}

TEST(SuppressionTest, RuleListSuppressesOnlyNamedRules) {
  // Line violates both banned-alloc and raw-thread; only one is waived.
  auto diags = RunOn(
      "src/a.cc",
      "auto* t = new std::thread(f); // NOLINT(banned-alloc)\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "raw-thread");
  // Naming both waives both.
  EXPECT_TRUE(
      RunOn("src/a.cc",
            "auto* t = new std::thread(f); // NOLINT(banned-alloc, "
            "raw-thread)\n")
          .empty());
}

TEST(SuppressionTest, NolintNextLineSuppressesFollowingLine) {
  EXPECT_TRUE(RunOn("src/a.cc",
                    "// NOLINTNEXTLINE(banned-alloc): private ctor\n"
                    "int* p = new int;\n")
                  .empty());
}

TEST(SuppressionTest, UnknownRuleNameSuppressesNothing) {
  auto diags = RunOn("src/a.cc", "int* p = new int; // NOLINT(other-rule)");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "banned-alloc");
}

TEST(SuppressionTest, NolintNextLineAboveMultiLineStatement) {
  // The marker reaches the line the statement starts on; a finding
  // anchored to a continuation line needs its own inline NOLINT.
  EXPECT_TRUE(RunOn("src/a.cc",
                    "// NOLINTNEXTLINE(banned-alloc)\n"
                    "int* p = new int(\n"
                    "    3);\n")
                  .empty());
  auto diags = RunOn("src/a.cc",
                     "// NOLINTNEXTLINE(banned-alloc)\n"
                     "int* p =\n"
                     "    new int;\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 3);
}

TEST(SuppressionTest, MultiRuleListWithAndWithoutSpaces) {
  EXPECT_TRUE(RunOn("src/a.cc",
                    "auto* t = new std::thread(f); "
                    "// NOLINT(banned-alloc,raw-thread)\n")
                  .empty());
  EXPECT_TRUE(RunOn("src/a.cc",
                    "auto* t = new std::thread(f); "
                    "// NOLINT( banned-alloc , raw-thread )\n")
                  .empty());
}

TEST(SuppressionTest, SuppressionCoexistsWithRealFindings) {
  // Waiving one line must not eat findings elsewhere in the same file.
  auto diags = RunOn("src/a.cc",
                     "int* a = new int;  // NOLINT(banned-alloc)\n"
                     "int* b = new int;\n"
                     "std::mutex mu;  // NOLINT(raw-thread)\n"
                     "int* c = new int;\n");
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].line, 2);
  EXPECT_EQ(diags[1].line, 4);
  EXPECT_EQ(diags[0].rule, "banned-alloc");
  EXPECT_EQ(diags[1].rule, "banned-alloc");
}

// --- Reports --------------------------------------------------------------

TEST(ReportTest, TextFormat) {
  auto diags = RunOn("src/a.cc", "int* p = new int;");
  std::string text = FormatText(diags);
  EXPECT_NE(text.find("src/a.cc:1: [banned-alloc]"), std::string::npos);
  EXPECT_NE(text.find("1 finding\n"), std::string::npos);
  EXPECT_EQ(FormatText({}), "gelc_lint: clean\n");
}

TEST(ReportTest, JsonShape) {
  auto diags = RunOn("src/a.cc", "int* p = new int;\nint* q = new int;");
  ASSERT_EQ(diags.size(), 2u);
  std::string json = FormatJson(diags);
  EXPECT_EQ(json.find("{\"findings\": ["), 0u);
  EXPECT_NE(json.find("\"file\": \"src/a.cc\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"line\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"banned-alloc\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2}"), std::string::npos);
}

TEST(ReportTest, JsonEscapesSpecialCharacters) {
  std::vector<Diagnostic> diags = {
      {"src/we\"ird.cc", 3, "banned-alloc", "line1\nline2\ttab"}};
  std::string json = FormatJson(diags);
  EXPECT_NE(json.find("we\\\"ird"), std::string::npos);
  EXPECT_NE(json.find("line1\\nline2\\ttab"), std::string::npos);
}

TEST(ReportTest, JsonByRuleSummary) {
  auto diags = RunOn("src/a.cc",
                     "int* p = new int;\n"
                     "std::mutex mu;\n"
                     "int* q = new int;\n");
  ASSERT_EQ(diags.size(), 3u);
  std::string json = FormatJson(diags);
  EXPECT_NE(
      json.find("\"by_rule\": {\"banned-alloc\": 2, \"raw-thread\": 1}"),
      std::string::npos);
  EXPECT_NE(json.find("\"count\": 3}"), std::string::npos);
  EXPECT_NE(FormatJson({}).find("\"by_rule\": {}"), std::string::npos);
}

TEST(ReportTest, AllRuleNamesListedOnce) {
  const auto& names = AllRuleNames();
  EXPECT_EQ(names.size(), 13u);
  for (const char* expected :
       {"unchecked-status", "dense-adjacency-in-hot-path",
        "csr-rebuild-in-stream-path",
        "segment-boundary-indexing", "raw-thread", "adhoc-timing",
        "nondeterminism", "banned-alloc", "intrinsics-outside-tensor",
        "include-hygiene", "parallel-region-race", "include-layering",
        "include-cycle"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

}  // namespace
}  // namespace lint
}  // namespace gelc
