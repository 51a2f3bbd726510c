#ifndef HERMES_TOOLS_DETLINT_RULES_H_
#define HERMES_TOOLS_DETLINT_RULES_H_

// detlint rule pass: eleven determinism rules over the token streams and
// the project include graph (see rules.cc for the catalog, DESIGN.md §5
// "Determinism toolchain" for the rationale table).

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"

namespace detlint {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string excerpt;

  bool operator<(const Finding& o) const {
    if (file != o.file) return file < o.file;
    if (line != o.line) return line < o.line;
    if (rule != o.rule) return rule < o.rule;
    return excerpt < o.excerpt;
  }
  bool operator==(const Finding& o) const {
    return file == o.file && line == o.line && rule == o.rule;
  }
};

struct Suppression {
  std::string file;
  int line = 0;
  std::string rule;
  std::string justification;
  bool used = false;
};

/// Every rule detlint knows, in report order.
const std::set<std::string>& KnownRules();

/// One-line description per rule (SARIF metadata and docs).
const std::map<std::string, std::string>& RuleDescriptions();

/// Which rules run on a file. Derived per source tree by ProfileFor().
using RuleProfile = std::set<std::string>;

/// Per-tree rule profile for `virtual_path`:
///   src/    all rules
///   tools/  all rules (offline, but held to the same bar)
///   bench/  all but raw-thread (google-benchmark harness + the malloc
///           interposition counters legitimately use atomics)
///   tests/  all but raw-unordered / unordered-iter (tests keep plain
///           std::unordered_* reference models to compare the salted
///           containers against)
RuleProfile ProfileFor(const std::string& virtual_path);

struct AnalysisResult {
  std::vector<Finding> findings;
  /// Suppressions in file-load order (reported in that order).
  std::vector<Suppression> suppressions;
};

/// Runs every profiled rule over `files`. The include graph and the
/// hash-container name set are global across the batch, so cross-file
/// accessors and transitive includes resolve; pass one batch per scan.
AnalysisResult Analyze(std::vector<LexedFile>& files);

}  // namespace detlint

#endif  // HERMES_TOOLS_DETLINT_RULES_H_
