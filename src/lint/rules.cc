#include "lint/rules.h"

#include <array>
#include <cctype>
#include <string_view>

namespace gelc {
namespace lint {
namespace {

using Tokens = std::vector<Token>;

bool PathEndsWith(const std::string& path, std::string_view suffix) {
  if (path.size() < suffix.size()) return false;
  if (path.compare(path.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  // Must match at a path-component boundary ("base/parallel.h" should not
  // match "notbase/parallel.h" but should match the exact path too).
  return path.size() == suffix.size() ||
         path[path.size() - suffix.size() - 1] == '/';
}

bool PathHasComponent(const std::string& path, std::string_view component) {
  size_t start = 0;
  while (start <= path.size()) {
    size_t slash = path.find('/', start);
    size_t end = (slash == std::string::npos) ? path.size() : slash;
    if (path.compare(start, end - start, component) == 0) return true;
    if (slash == std::string::npos) break;
    start = slash + 1;
  }
  return false;
}

void Report(const FileContext& ctx, int line, std::string rule,
            std::string message, std::vector<Diagnostic>* out) {
  out->push_back(
      Diagnostic{ctx.path, line, std::move(rule), std::move(message)});
}

/// True when tokens[i] is `std` and tokens[i+1] is `::` and tokens[i+2]
/// is one of `names`; sets *name to the matched identifier.
bool MatchesStdQualified(const Tokens& t, size_t i,
                         const std::unordered_set<std::string>& names,
                         std::string* name) {
  if (i + 2 >= t.size()) return false;
  if (!(t[i].kind == TokenKind::kIdentifier && t[i].text == "std")) {
    return false;
  }
  if (!t[i + 1].Is("::")) return false;
  if (t[i + 2].kind != TokenKind::kIdentifier) return false;
  if (names.count(t[i + 2].text) == 0) return false;
  *name = t[i + 2].text;
  return true;
}

// ---------------------------------------------------------------------------
// raw-thread: concurrency primitives belong behind base/parallel.
// ---------------------------------------------------------------------------
void RuleRawThread(const FileContext& ctx, std::vector<Diagnostic>* out) {
  if (PathEndsWith(ctx.path, "base/parallel.h") ||
      PathEndsWith(ctx.path, "base/parallel.cc")) {
    return;
  }
  // src/obs guards its registry and trace-buffer list with mutexes by
  // design (registration is rare, never a hot path); everything else
  // still goes through the pool. tests/obs_test.cc is NOT exempt.
  if (PathHasComponent(ctx.path, "obs")) return;
  static const std::unordered_set<std::string> kBanned = {
      "thread",        "jthread",
      "async",         "mutex",
      "recursive_mutex", "timed_mutex",
      "shared_mutex",  "condition_variable",
      "condition_variable_any",
  };
  const Tokens& t = ctx.lex->tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    std::string name;
    if (MatchesStdQualified(t, i, kBanned, &name)) {
      Report(ctx, t[i].line, "raw-thread",
             "std::" + name +
                 " outside base/parallel; route concurrency through the "
                 "shared pool (ParallelFor/ParallelMap)",
             out);
      i += 2;
    }
  }
}

// ---------------------------------------------------------------------------
// adhoc-timing: wall-clock reads belong to obs/trace.cc — the one TU
// that owns the clock, read by the scopes that feed both the trace and
// the timing plane — or to benchmarks. The rest of src/obs is NOT exempt:
// the deterministic registry must never read a clock, or its
// byte-reproducible snapshots stop being byte-reproducible. Ad-hoc
// steady_clock stopwatches scattered through library code bit-rot, skew
// results, and bypass GELC_TRACE/GELC_TIMINGS; instrument with
// GELC_OBS_SCOPE instead. Matching the bare clock identifier (not the
// full std::chrono:: spelling) also catches namespace aliases.
// ---------------------------------------------------------------------------
void RuleAdhocTiming(const FileContext& ctx, std::vector<Diagnostic>* out) {
  if (PathEndsWith(ctx.path, "obs/trace.cc") ||
      PathHasComponent(ctx.path, "bench")) {
    return;
  }
  static const std::unordered_set<std::string> kClocks = {
      "steady_clock", "high_resolution_clock", "system_clock"};
  const Tokens& t = ctx.lex->tokens;
  for (const Token& tok : t) {
    if (tok.kind != TokenKind::kIdentifier) continue;
    if (kClocks.count(tok.text) == 0) continue;
    Report(ctx, tok.line, "adhoc-timing",
           tok.text +
               " outside obs/trace.cc and bench/; time code with "
               "GELC_OBS_SCOPE (obs/trace.h) instead of an ad-hoc "
               "stopwatch",
           out);
  }
}

// ---------------------------------------------------------------------------
// nondeterminism: all randomness flows through an explicitly seeded
// gelc::Rng; wall-clock and unseeded engines break reproducibility.
// ---------------------------------------------------------------------------
void RuleNondeterminism(const FileContext& ctx, std::vector<Diagnostic>* out) {
  if (PathEndsWith(ctx.path, "base/rng.h")) return;
  const Tokens& t = ctx.lex->tokens;
  auto next_is = [&t](size_t i, std::string_view s) {
    return i + 1 < t.size() && t[i + 1].Is(s);
  };
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdentifier) continue;
    const std::string& w = t[i].text;

    // rand() / srand() — C library PRNG, global hidden state.
    if ((w == "rand" || w == "srand") && next_is(i, "(")) {
      // Skip member accesses like foo.rand( — only the C function.
      if (i > 0 && (t[i - 1].Is(".") || t[i - 1].Is("->"))) continue;
      Report(ctx, t[i].line, "nondeterminism",
             w + "() uses hidden global PRNG state; use a seeded gelc::Rng",
             out);
      continue;
    }

    // std::random_device — entropy source, never reproducible.
    if (w == "random_device") {
      Report(ctx, t[i].line, "nondeterminism",
             "std::random_device is nondeterministic by design; seed a "
             "gelc::Rng explicitly",
             out);
      continue;
    }

    // time(nullptr) / time(NULL) / time(0) — wall-clock seeding.
    if (w == "time" && next_is(i, "(") && i + 3 < t.size() &&
        (t[i + 2].Is("nullptr") || t[i + 2].Is("NULL") || t[i + 2].Is("0")) &&
        t[i + 3].Is(")")) {
      if (i > 0 && (t[i - 1].Is(".") || t[i - 1].Is("->"))) continue;
      Report(ctx, t[i].line, "nondeterminism",
             "time(...) wall-clock value; experiments must reproduce "
             "bit-for-bit — use a fixed seed",
             out);
      continue;
    }

    // Default-constructed std::mt19937 / mt19937_64: seeded with a fixed
    // but implementation-defined constant, and invariably a smell that
    // randomness is not flowing through gelc::Rng.
    if (w == "mt19937" || w == "mt19937_64") {
      size_t j = i + 1;
      // Optional declarator name: std::mt19937 gen; / gen{}; / gen();
      if (j < t.size() && t[j].kind == TokenKind::kIdentifier) ++j;
      bool argless =
          j < t.size() &&
          (t[j].Is(";") ||
           (t[j].Is("(") && j + 1 < t.size() && t[j + 1].Is(")")) ||
           (t[j].Is("{") && j + 1 < t.size() && t[j + 1].Is("}")));
      if (argless) {
        Report(ctx, t[i].line, "nondeterminism",
               "argless std::" + w +
                   "; pass an explicit seed (or use gelc::Rng)",
               out);
      }
      continue;
    }
  }
}

// ---------------------------------------------------------------------------
// banned-alloc: raw new/delete. Ownership goes through containers and
// smart pointers; the rare legitimate site (private-constructor factory)
// carries a NOLINT(banned-alloc) with justification.
// ---------------------------------------------------------------------------
void RuleBannedAlloc(const FileContext& ctx, std::vector<Diagnostic>* out) {
  const Tokens& t = ctx.lex->tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdentifier) continue;
    const std::string& w = t[i].text;
    if (w != "new" && w != "delete") continue;
    // `= delete` / `= delete;` — deleted functions, not deallocation.
    if (w == "delete" && i > 0 && t[i - 1].Is("=")) continue;
    // `operator new` / `operator delete` declarations (class-level
    // allocator customization is an intentional act).
    if (i > 0 && t[i - 1].Is("operator")) continue;
    // Placement new (`new (buf) T`) constructs into existing storage and
    // is allowed; a parenthesis directly after `new` marks it.
    if (w == "new" && i + 1 < t.size() && t[i + 1].Is("(")) continue;
    Report(ctx, t[i].line, "banned-alloc",
           "raw `" + w +
               "`; use containers / std::make_unique, or justify with "
               "NOLINT(banned-alloc)",
           out);
  }
}

// ---------------------------------------------------------------------------
// intrinsics-outside-tensor: vector intrinsics (and the vector register
// types) are confined to the SIMD kernel TUs (src/tensor/simd*), the one
// place built with -mavx2 -mfma and audited against the bit-exactness
// contract (DESIGN.md §11). An _mm256_* call anywhere else either fails
// to compile (no vector flags) or silently drags vector codegen into a
// baseline-ISA TU; both belong behind the dispatch layer (tensor/simd.h).
// The lexer drops preprocessor lines, so the rule keys on identifiers
// (_mm*, __m128/__m256/__m512 variants), not on #include <immintrin.h> —
// any actual use of the header trips it anyway.
// ---------------------------------------------------------------------------

/// True for identifiers that only the x86 vector headers define:
/// intrinsic calls (_mm_*, _mm256_*, _mm512_*) and register types
/// (__m128*, __m256*, __m512*).
bool IsVectorIntrinsicIdentifier(const std::string& w) {
  if (w.compare(0, 3, "_mm") == 0) return true;
  return w.compare(0, 6, "__m128") == 0 || w.compare(0, 6, "__m256") == 0 ||
         w.compare(0, 6, "__m512") == 0;
}

void RuleIntrinsicsOutsideTensor(const FileContext& ctx,
                                 std::vector<Diagnostic>* out) {
  // Exempt exactly src/tensor/simd* (simd.h declares no intrinsics today,
  // but the whole simd family is the sanctioned home).
  if (PathHasComponent(ctx.path, "tensor")) {
    size_t slash = ctx.path.find_last_of('/');
    std::string_view base(ctx.path);
    if (slash != std::string::npos) base.remove_prefix(slash + 1);
    if (base.substr(0, 4) == "simd") return;
  }
  const Tokens& t = ctx.lex->tokens;
  for (const Token& tok : t) {
    if (tok.kind != TokenKind::kIdentifier) continue;
    if (!IsVectorIntrinsicIdentifier(tok.text)) continue;
    Report(ctx, tok.line, "intrinsics-outside-tensor",
           tok.text +
               " outside src/tensor/simd*; vector code lives behind the "
               "SIMD dispatch layer (tensor/simd.h) so the bit-exactness "
               "contract stays auditable in one place",
           out);
  }
}

// ---------------------------------------------------------------------------
// include-hygiene: `using namespace` in a header leaks into every
// includer.
// ---------------------------------------------------------------------------
void RuleIncludeHygiene(const FileContext& ctx, std::vector<Diagnostic>* out) {
  if (!ctx.is_header) return;
  const Tokens& t = ctx.lex->tokens;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind == TokenKind::kIdentifier && t[i].text == "using" &&
        t[i + 1].kind == TokenKind::kIdentifier &&
        t[i + 1].text == "namespace") {
      Report(ctx, t[i].line, "include-hygiene",
             "`using namespace` in a header pollutes every includer",
             out);
    }
  }
}

// ---------------------------------------------------------------------------
// dense-adjacency-in-hot-path: the GNN message-passing layer must stay on
// the CSR operators (Graph::Csr()); materializing the dense n x n
// adjacency there reintroduces the O(n^2 d) path PR 2 removed.
// ---------------------------------------------------------------------------
void RuleDenseAdjacency(const FileContext& ctx, std::vector<Diagnostic>* out) {
  if (!PathHasComponent(ctx.path, "gnn")) return;
  const Tokens& t = ctx.lex->tokens;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdentifier) continue;
    if ((t[i].text == "AdjacencyMatrix" ||
         t[i].text == "MeanAdjacencyMatrix") &&
        t[i + 1].Is("(")) {
      Report(ctx, t[i].line, "dense-adjacency-in-hot-path",
             t[i].text +
                 "() under src/gnn builds an O(n^2) dense operator; use "
                 "Graph::Csr() instead",
             out);
    }
  }
}

// ---------------------------------------------------------------------------
// interpreter-in-hot-path: the hand-written GNN forwards are the fused
// fast path; routing them through the table-building Evaluator (or
// quietly constructing one as a fallback) reintroduces per-node
// interpretation overhead. GNN-to-GEL round trips belong in core/ and
// tests/, where the interpreter is the semantics oracle.
// ---------------------------------------------------------------------------
void RuleInterpreterInHotPath(const FileContext& ctx,
                              std::vector<Diagnostic>* out) {
  if (!PathHasComponent(ctx.path, "gnn")) return;
  const Tokens& t = ctx.lex->tokens;
  for (const Token& tok : t) {
    if (tok.kind != TokenKind::kIdentifier) continue;
    if (tok.text == "Evaluator") {
      Report(ctx, tok.line, "interpreter-in-hot-path",
             "Evaluator under src/gnn interprets expression tables in the "
             "fused forward path; use the tensor kernels directly or "
             "compile a plan (core/plan_compile.h)",
             out);
    }
  }
}

// ---------------------------------------------------------------------------
// csr-rebuild-in-stream-path: the update-log replayer is the streaming
// hot loop; calling the full Graph::Csr() compaction (or materializing a
// dense adjacency) per op/batch reintroduces the rebuild-per-mutation
// cost the delta-CSR exists to remove. Streaming readers use
// AdjacencyDeltaView()/TransposeDeltaView() + SpMMDelta instead;
// compaction happens on the Graph's own threshold schedule.
// ---------------------------------------------------------------------------
void RuleCsrRebuildInStreamPath(const FileContext& ctx,
                                std::vector<Diagnostic>* out) {
  if (!PathEndsWith(ctx.path, "graph/update_log.h") &&
      !PathEndsWith(ctx.path, "graph/update_log.cc")) {
    return;
  }
  const Tokens& t = ctx.lex->tokens;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdentifier) continue;
    if ((t[i].text == "Csr" || t[i].text == "AdjacencyMatrix" ||
         t[i].text == "MeanAdjacencyMatrix") &&
        t[i + 1].Is("(")) {
      Report(ctx, t[i].line, "csr-rebuild-in-stream-path",
             t[i].text +
                 "() in the update-log replay path forces a full CSR "
                 "rebuild per batch; stream readers use the delta views "
                 "(Graph::AdjacencyDeltaView) instead",
             out);
    }
  }
}

// ---------------------------------------------------------------------------
// segment-boundary-indexing: GNN code must not index into a GraphBatch's
// backing vectors by hand (`batch.segment_ids()[v]`,
// `batch.vertex_offsets()[i]`, or arithmetic over them) — off-by-one
// block math silently reads a neighboring graph's rows. The accessors
// (graph_offset / graph_size / segment_of / Slice) carry the bounds
// checks and are the only sanctioned way to cross a segment boundary.
// ---------------------------------------------------------------------------
void RuleSegmentIndexing(const FileContext& ctx,
                         std::vector<Diagnostic>* out) {
  if (!PathHasComponent(ctx.path, "gnn")) return;
  const Tokens& t = ctx.lex->tokens;
  for (size_t i = 0; i + 3 < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdentifier) continue;
    if (t[i].text != "segment_ids" && t[i].text != "vertex_offsets") continue;
    if (t[i + 1].Is("(") && t[i + 2].Is(")") && t[i + 3].Is("[")) {
      Report(ctx, t[i].line, "segment-boundary-indexing",
             t[i].text +
                 "()[...] under src/gnn indexes across segment boundaries "
                 "by hand; use the GraphBatch accessors "
                 "(graph_offset/graph_size/segment_of/Slice) instead",
             out);
    }
  }
}

// ---------------------------------------------------------------------------
// unchecked-status: a full-statement call to a Status/Result-returning
// function whose value is discarded — either a bare `Foo(...);` statement
// or a `(void)Foo(...)` cast. Compile-time [[nodiscard]] catches the
// former; the linter additionally bans the (void) escape hatch (use
// Status::IgnoreError() and say why).
// ---------------------------------------------------------------------------

/// Identifier-shaped keywords that can open a statement but never open a
/// discarded-call chain.
bool IsStatementKeyword(const std::string& w) {
  static const std::unordered_set<std::string> kKeywords = {
      "return",   "if",       "while",   "for",      "switch", "case",
      "default",  "goto",     "break",   "continue", "do",     "else",
      "new",      "delete",   "throw",   "co_return", "co_await",
      "co_yield", "using",    "typedef", "template", "class",  "struct",
      "enum",     "namespace", "public", "private",  "protected",
      "static_assert",
  };
  return kKeywords.count(w) > 0;
}

/// Skips a balanced (...) / [...] / {...} group starting at `i` (which
/// must index the opener). Returns the index just past the closer, or
/// t.size() if unbalanced.
size_t SkipBalanced(const Tokens& t, size_t i) {
  std::string_view open = t[i].text;
  std::string_view close = open == "(" ? ")" : open == "[" ? "]" : "}";
  int depth = 0;
  for (; i < t.size(); ++i) {
    if (t[i].Is(open)) {
      ++depth;
    } else if (t[i].Is(close)) {
      if (--depth == 0) return i + 1;
    }
  }
  return t.size();
}

void RuleUncheckedStatus(const FileContext& ctx,
                         std::vector<Diagnostic>* out) {
  const Tokens& t = ctx.lex->tokens;
  bool at_statement_start = true;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].Is(";") || t[i].Is("{") || t[i].Is("}")) {
      at_statement_start = true;
      continue;
    }
    if (!at_statement_start) continue;
    at_statement_start = false;

    size_t j = i;
    bool void_cast = false;
    // `(void) <chain>;` — an explicit discard cast.
    if (t[j].Is("(") && j + 2 < t.size() && t[j + 1].Is("void") &&
        t[j + 2].Is(")")) {
      void_cast = true;
      j += 3;
    }
    if (j >= t.size() || t[j].kind != TokenKind::kIdentifier ||
        IsStatementKeyword(t[j].text)) {
      continue;
    }
    // A macro-shaped leading identifier (BENCHMARK, TEST_F, GELC_*, all
    // caps) opens registration/assertion machinery, not a discarded
    // status — e.g. `BENCHMARK(f)->Apply(...);` is a builder chain.
    {
      const std::string& head = t[j].text;
      bool macro_shaped = head.size() >= 2;
      for (char ch : head) {
        if (!(std::isupper(static_cast<unsigned char>(ch)) ||
              std::isdigit(static_cast<unsigned char>(ch)) || ch == '_')) {
          macro_shaped = false;
          break;
        }
      }
      if (macro_shaped) continue;
    }

    // Walk a postfix chain: ident (:: ident)* then any sequence of
    // calls/subscripts/member accesses. Track the identifier that owns
    // the most recent call.
    std::string last_callee;
    int last_callee_line = t[j].line;
    std::string pending = t[j].text;
    int pending_line = t[j].line;
    ++j;
    bool chain_ended_with_call = false;
    while (j < t.size()) {
      if (t[j].Is("::") || t[j].Is(".") || t[j].Is("->")) {
        if (j + 1 >= t.size() || t[j + 1].kind != TokenKind::kIdentifier) {
          break;
        }
        pending = t[j + 1].text;
        pending_line = t[j + 1].line;
        chain_ended_with_call = false;
        j += 2;
        continue;
      }
      if (t[j].Is("(")) {
        last_callee = pending;
        last_callee_line = pending_line;
        j = SkipBalanced(t, j);
        chain_ended_with_call = true;
        continue;
      }
      if (t[j].Is("[")) {
        j = SkipBalanced(t, j);
        chain_ended_with_call = false;
        continue;
      }
      break;
    }

    if (j < t.size() && t[j].Is(";") && chain_ended_with_call &&
        !last_callee.empty() &&
        ctx.status_functions->count(last_callee) > 0) {
      Report(ctx, last_callee_line, "unchecked-status",
             (void_cast
                  ? "(void)-cast of Status/Result from " + last_callee +
                        "(); handle it or call .IgnoreError() with a reason"
                  : "result of " + last_callee +
                        "() (Status/Result) is discarded; check it, "
                        "propagate it, or call .IgnoreError()"),
             out);
    }
  }
}

}  // namespace

const std::vector<std::string>& AllRuleNames() {
  static const std::vector<std::string> kNames = {
      "unchecked-status",  "dense-adjacency-in-hot-path",
      "interpreter-in-hot-path",
      "csr-rebuild-in-stream-path",
      "segment-boundary-indexing",
      "raw-thread",        "adhoc-timing",
      "nondeterminism",    "banned-alloc",
      "intrinsics-outside-tensor",
      "include-hygiene",
      // Whole-program passes (lint/parallel_region.h, lint/include_graph.h).
      "parallel-region-race",
      "include-layering",
      "include-cycle",
  };
  return kNames;
}

std::vector<Diagnostic> RunAllRules(const FileContext& ctx) {
  std::vector<Diagnostic> out;
  RuleUncheckedStatus(ctx, &out);
  RuleDenseAdjacency(ctx, &out);
  RuleInterpreterInHotPath(ctx, &out);
  RuleCsrRebuildInStreamPath(ctx, &out);
  RuleSegmentIndexing(ctx, &out);
  RuleRawThread(ctx, &out);
  RuleAdhocTiming(ctx, &out);
  RuleNondeterminism(ctx, &out);
  RuleBannedAlloc(ctx, &out);
  RuleIntrinsicsOutsideTensor(ctx, &out);
  RuleIncludeHygiene(ctx, &out);
  return out;
}

void CollectStatusFunctionsFromTokens(const std::vector<Token>& tokens,
                                      StatusFunctionSet* out) {
  const Tokens& t = tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdentifier) continue;
    size_t j;
    if (t[i].text == "Status") {
      j = i + 1;
    } else if (t[i].text == "Result" && i + 1 < t.size() && t[i + 1].Is("<")) {
      // Skip the template argument list (tracking <> depth; good enough
      // for the nesting that appears in return types).
      int depth = 0;
      j = i + 1;
      for (; j < t.size(); ++j) {
        if (t[j].Is("<")) ++depth;
        if (t[j].Is(">")) {
          if (--depth == 0) {
            ++j;
            break;
          }
        }
        if (t[j].Is(">>")) {
          depth -= 2;
          if (depth <= 0) {
            ++j;
            break;
          }
        }
        if (t[j].Is(";") || t[j].Is("{")) break;  // not a return type
      }
    } else {
      continue;
    }
    // Possibly-qualified declarator: Name, Class::Name, or the
    // out-of-line template form Class<T>::Name — record the final
    // identifier if a '(' follows (a function declarator). Template
    // argument lists between segments are skipped, so methods of class
    // templates defined out of line are indexed like any other.
    if (j >= t.size() || t[j].kind != TokenKind::kIdentifier) continue;
    std::string name = t[j].text;
    ++j;
    while (j < t.size()) {
      if (t[j].Is("<")) {
        // Only skip the angle group when it closes back onto a `::`
        // (declarator qualification); `Status x < y` is not a declarator.
        int depth = 0;
        size_t k = j;
        for (; k < t.size(); ++k) {
          if (t[k].Is("<")) ++depth;
          if (t[k].Is(">") && --depth == 0) {
            ++k;
            break;
          }
          if (t[k].Is(">>")) {
            depth -= 2;
            if (depth <= 0) {
              ++k;
              break;
            }
          }
          if (t[k].Is(";") || t[k].Is("{") || t[k].Is(")")) break;
        }
        if (depth > 0 || k >= t.size() || !t[k].Is("::")) break;
        j = k;
        continue;
      }
      if (j + 1 < t.size() && t[j].Is("::") &&
          t[j + 1].kind == TokenKind::kIdentifier) {
        name = t[j + 1].text;
        j += 2;
        continue;
      }
      break;
    }
    if (j < t.size() && t[j].Is("(")) out->insert(name);
  }
}

void CollectGuardedByFromTokens(
    const std::vector<Token>& tokens,
    std::unordered_map<std::string, std::string>* out) {
  const Tokens& t = tokens;
  for (size_t i = 0; i + 3 < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdentifier) continue;
    if (t[i + 1].kind != TokenKind::kIdentifier ||
        t[i + 1].text != "GELC_GUARDED_BY") {
      continue;
    }
    if (!t[i + 2].Is("(") || t[i + 3].kind != TokenKind::kIdentifier) continue;
    (*out)[t[i].text] = t[i + 3].text;
  }
}

void CollectAtomicVarsFromTokens(const std::vector<Token>& tokens,
                                 std::unordered_set<std::string>* out) {
  const Tokens& t = tokens;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdentifier || t[i].text != "atomic") continue;
    if (!t[i + 1].Is("<")) continue;
    // Skip the template argument list, then record the declarator name.
    int depth = 0;
    size_t j = i + 1;
    for (; j < t.size(); ++j) {
      if (t[j].Is("<")) ++depth;
      if (t[j].Is(">") && --depth == 0) {
        ++j;
        break;
      }
      if (t[j].Is(">>")) {
        depth -= 2;
        if (depth <= 0) {
          ++j;
          break;
        }
      }
      if (t[j].Is(";") || t[j].Is("{")) break;
    }
    if (depth > 0 || j >= t.size()) continue;
    if (t[j].kind == TokenKind::kIdentifier) out->insert(t[j].text);
  }
}

ProgramIndex BuildProgramIndex(const std::vector<FileHarvest>& files) {
  ProgramIndex index;
  for (const FileHarvest& f : files) {
    CollectStatusFunctionsFromTokens(f.lex.tokens, &index.status_functions);
    CollectGuardedByFromTokens(f.lex.tokens, &index.guarded_by);
    CollectAtomicVarsFromTokens(f.lex.tokens, &index.atomic_vars);
  }
  return index;
}

}  // namespace lint
}  // namespace gelc
