// dm::lint — determinism & invariant linter for the pipeline.
//
// Every exhibit in the study must be byte-identically reproducible across
// thread counts, spill modes, and checkpoint/restore. The pipeline keeps
// that by convention (canonical keyed sorts, Rng::split seeding,
// shard-order merges); this tool turns the conventions into
// machine-checked invariants over all of src/, tools/ and bench/:
//
//   nondeterministic-call   rand()/srand(), std::random_device, any
//                           *_clock::now(), time()/clock()/localtime()/
//                           gmtime(), and thread-identity values
//                           (this_thread::get_id, pthread_self, gettid,
//                           getpid) are banned in library code. Randomness
//                           must come from util::Rng with an explicit seed;
//                           time must come from the trace.
//   pointer-keyed-container associative containers keyed by a pointer type
//                           order or hash by address, which varies run to
//                           run. Key by a stable identity instead.
//   unordered-iteration     iterating a std::unordered_{map,set,multimap,
//                           multiset} (range-for or .begin()/.end() and
//                           friends) visits hash order, which is
//                           implementation- and seed-dependent. Sort first
//                           or use an ordered container. Declaration and
//                           point lookups are fine. Scope note: the rule
//                           sees variables whose unordered type is spelled
//                           out in the same file (members, locals,
//                           parameters); aliases deduced through auto are
//                           out of reach of a lexical tool.
//   sort-tie-break          a std::sort/std::stable_sort with an inline
//                           lambda comparator must visibly resolve ties:
//                           a std::tie/std::make_tuple lexicographic
//                           compare, a key-projection `f(a) < f(b)`, or a
//                           multi-return tie-break chain all count; a
//                           naked single-member compare needs a
//                           `// dmlint: total-order(<why ties are
//                           impossible or harmless>)` annotation. Named
//                           comparators and comparator-less calls are
//                           accepted as canonical.
//   checkpoint-coverage     serialization code bracketed by
//                           `// dmlint: covers(var, Struct)` ...
//                           `// dmlint: covers-end(var)` must access every
//                           declared field of Struct, so adding a field
//                           without serializing it fails the lint. Structs
//                           carrying `// dmlint: checkpointed` in their
//                           body must have at least two covers regions
//                           (serialize + restore) somewhere in the scan.
//   durability-order        inside `// dmlint: durable-commit` regions,
//                           every rename() source must carry a preceding
//                           fsync and the final rename must be followed by
//                           a directory fsync — the temp+fsync+atomic-
//                           rename commit protocol, machine-checked.
//   unchecked-failable      functions returning a `// dmlint: must-use`
//                           type are indexed cross-TU; discarding a call
//                           result is a finding, and at least one
//                           declaration must carry [[nodiscard]].
//   ledger-conservation     counters grouped by `// dmlint: ledger(name)`
//                           must be mutated together within a function, and
//                           a `// dmlint: ledger-total(name)` function must
//                           read every member it recomputes.
//   guarded-by              fields marked `// dmlint: guarded-by(mutex)`
//                           may only be touched by functions that visibly
//                           lock that mutex.
//   suppression-reason      every `// dmlint: allow(rule)` must carry a
//                           non-empty justification; a bare allow is
//                           itself a finding and suppresses nothing.
//   directive               malformed or unknown `dmlint:` comments.
//
// The first six rules are per-line/token (PR 5); the next four are the
// dmflow pass: a cross-TU function/annotation index (lint/index.h) feeding
// intra-procedural ordered-call checks (lint/flow.h). See DESIGN.md §5j.
//
// Suppressions: `// dmlint: allow(<rule>) <reason>` on the offending line,
// or alone on the line above it.
#pragma once

#include <string>
#include <vector>

namespace dm::lint {

inline constexpr const char* kRuleNondetCall = "nondeterministic-call";
inline constexpr const char* kRulePointerKey = "pointer-keyed-container";
inline constexpr const char* kRuleUnorderedIter = "unordered-iteration";
inline constexpr const char* kRuleSortTieBreak = "sort-tie-break";
inline constexpr const char* kRuleCheckpointCoverage = "checkpoint-coverage";
inline constexpr const char* kRuleDurabilityOrder = "durability-order";
inline constexpr const char* kRuleMustUse = "unchecked-failable";
inline constexpr const char* kRuleLedger = "ledger-conservation";
inline constexpr const char* kRuleGuardedBy = "guarded-by";
inline constexpr const char* kRuleSuppressionReason = "suppression-reason";
inline constexpr const char* kRuleDirective = "directive";

/// All enforceable rule names (excludes the two meta rules, which cannot be
/// suppressed).
[[nodiscard]] const std::vector<std::string>& rule_names();

struct SourceFile {
  std::string path;  ///< as reported in findings
  std::string text;
};

struct Finding {
  std::string file;
  int line = 0;  ///< 1-based
  std::string rule;
  std::string message;
};

struct LintReport {
  /// Active findings, sorted by (file, line, rule). Empty means clean.
  std::vector<Finding> findings;
  /// Findings silenced by a valid allow() directive, for --verbose output.
  std::vector<Finding> suppressed;
};

/// Lints a set of translation units as one program: struct definitions and
/// checkpointed markers are indexed across all files, everything else is
/// per-file.
[[nodiscard]] LintReport run_lint(const std::vector<SourceFile>& files);

/// Stable identity of a finding for the baseline file: hash of rule, path,
/// and message plus an ordinal among identical triples, so line drift does
/// not invalidate a grandfathered entry. `ordinal` counts prior findings in
/// the same report with the same (rule, path, message).
[[nodiscard]] std::string fingerprint(const Finding& f, int ordinal);

/// Reads every .h/.cpp under root/<subdir> for each subdir, recursively,
/// in sorted path order (deterministic across platforms). Paths in the
/// result are relative to `root`. Missing subdirs are skipped.
[[nodiscard]] std::vector<SourceFile> load_tree(
    const std::string& root, const std::vector<std::string>& subdirs);

}  // namespace dm::lint
