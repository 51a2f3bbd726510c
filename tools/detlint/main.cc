// detlint — determinism lint for the Hermes routing/simulation stack.
//
// Hermes' schedulers are replicated deterministic state machines: every
// replica must reach bit-identical routing, eviction and migration
// decisions from the same totally ordered input. A single hash-map
// iteration-order leak, unseeded RNG, wall-clock read, or thread
// silently breaks replica agreement. detlint scans the source tree for
// the banned patterns CLAUDE.md's invariants describe — see rules.cc for
// the eleven-rule catalog and DESIGN.md §5 "Determinism
// toolchain" for the full rule table.
//
// v2 is a small multi-file analyzer (lexer.cc, rules.cc, report.cc):
// a real C++ token stream (raw-string aware) instead of regexes over
// stripped text, and a project include graph for transitive include
// hygiene.
//
// A finding is suppressed by an allow-marker comment on the same line or
// the line directly above — the `detlint:` prefix immediately followed
// by `allow(<rule>) <justification>`.
//
// The justification is mandatory and every suppression is listed in the
// report, so allowed exceptions stay reviewable.
//
// Usage:
//   detlint [--sarif=FILE] [--format=text|sarif] <dir-or-file>...
//   detlint --self-test <corpus-dir>
//
// Scan mode applies a per-tree rule profile (src/tools/bench/tests; see
// rules.cc ProfileFor) and skips the golden corpus under
// tests/detlint_corpus/, whose fixtures are deliberate violations.
// Self-test mode replays that corpus: every case directory holds fixture
// files (first line `// detlint-fixture: path=<virtual path>` places the
// fixture for path-scoped rules) plus an expected.txt listing the exact
// diagnostics; any difference fails.
//
// Exit status: 0 when clean, 1 when unsuppressed findings (or
// unjustified/unused suppressions, or self-test mismatches) exist, 2 on
// usage errors.
//
// The analyzer is a tripwire, not a compiler: the runtime complement —
// hash-salt perturbation and the decision/placement/trace digests —
// catches what a token-level pass cannot prove absent.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lexer.h"
#include "report.h"
#include "rules.h"

namespace {

namespace fs = std::filesystem;

bool ReadFile(const fs::path& p, std::string* out) {
  std::ifstream in(p);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool IsSourceExt(const std::string& ext) {
  return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp";
}

/// The error count PrintTextReport would report, without printing.
int CountErrors(const detlint::AnalysisResult& result) {
  int errors = static_cast<int>(result.findings.size());
  for (const detlint::Suppression& s : result.suppressions) {
    if (detlint::KnownRules().count(s.rule) == 0 || s.justification.empty() ||
        !s.used) {
      ++errors;
    }
  }
  return errors;
}

// ---------------------------------------------------------------------------
// Scan mode.
// ---------------------------------------------------------------------------

int RunScan(const std::vector<std::string>& roots, const std::string& format,
            const std::string& sarif_path) {
  std::vector<fs::path> paths;
  for (const std::string& root : roots) {
    if (fs::is_directory(root)) {
      for (const auto& entry : fs::recursive_directory_iterator(root)) {
        if (!entry.is_regular_file()) continue;
        const std::string p = entry.path().generic_string();
        // The golden corpus is deliberate violations; --self-test owns it.
        if (p.find("detlint_corpus") != std::string::npos) continue;
        if (IsSourceExt(entry.path().extension().string())) {
          paths.push_back(entry.path());
        }
      }
    } else if (fs::is_regular_file(root)) {
      paths.emplace_back(root);
    } else {
      std::fprintf(stderr, "detlint: no such file or directory: %s\n",
                   root.c_str());
      return 2;
    }
  }
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());

  std::vector<detlint::LexedFile> files;
  files.reserve(paths.size());
  for (const fs::path& p : paths) {
    std::string raw;
    if (!ReadFile(p, &raw)) {
      std::fprintf(stderr, "detlint: cannot read %s\n", p.c_str());
      return 2;
    }
    const std::string path = p.generic_string();
    files.push_back(detlint::Lex(path, path, std::move(raw)));
  }

  detlint::AnalysisResult result = detlint::Analyze(files);

  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path);
    if (!out) {
      std::fprintf(stderr, "detlint: cannot write %s\n", sarif_path.c_str());
      return 2;
    }
    out << detlint::SarifReport(result);
  }

  int errors = 0;
  if (format == "sarif") {
    std::fputs(detlint::SarifReport(result).c_str(), stdout);
    errors = CountErrors(result);
  } else {
    errors = detlint::PrintTextReport(result, files.size(), stdout);
  }
  return errors == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Self-test mode: replay the golden fixture corpus.
// ---------------------------------------------------------------------------

/// Fixture virtual path from the mandatory first-line marker
/// `// detlint-fixture: path=<virtual path>`.
std::string FixturePath(const std::string& raw) {
  static const std::string kMarker = "detlint-fixture: path=";
  const size_t pos = raw.find(kMarker);
  if (pos == std::string::npos) return "";
  size_t begin = pos + kMarker.size();
  size_t end = begin;
  while (end < raw.size() && !std::isspace(static_cast<unsigned char>(raw[end]))) {
    ++end;
  }
  return raw.substr(begin, end - begin);
}

/// One diagnostic in the canonical `path:line:rule` comparison form.
std::vector<std::string> DiagnosticKeys(const detlint::AnalysisResult& r) {
  std::vector<std::string> keys;
  for (const detlint::Finding& f : r.findings) {
    keys.push_back(f.file + ":" + std::to_string(f.line) + ":" + f.rule);
  }
  for (const detlint::Suppression& s : r.suppressions) {
    std::string kind;
    if (detlint::KnownRules().count(s.rule) == 0) {
      kind = "suppression-unknown-rule";
    } else if (s.justification.empty()) {
      kind = "suppression-missing-justification";
    } else if (!s.used) {
      kind = "suppression-unused";
    } else {
      continue;  // honored suppressions are not errors
    }
    keys.push_back(s.file + ":" + std::to_string(s.line) + ":" + kind);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

int RunSelfTest(const std::string& corpus_root) {
  if (!fs::is_directory(corpus_root)) {
    std::fprintf(stderr, "detlint: corpus directory not found: %s\n",
                 corpus_root.c_str());
    return 2;
  }
  std::vector<fs::path> cases;
  for (const auto& entry : fs::directory_iterator(corpus_root)) {
    if (entry.is_directory()) cases.push_back(entry.path());
  }
  std::sort(cases.begin(), cases.end());
  if (cases.empty()) {
    std::fprintf(stderr, "detlint: corpus is empty: %s\n",
                 corpus_root.c_str());
    return 2;
  }

  int failures = 0;
  std::set<std::string> rules_with_case;
  for (const fs::path& dir : cases) {
    const std::string case_name = dir.filename().string();

    std::vector<fs::path> fixture_paths;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.is_regular_file() &&
          IsSourceExt(entry.path().extension().string())) {
        fixture_paths.push_back(entry.path());
      }
    }
    std::sort(fixture_paths.begin(), fixture_paths.end());

    std::vector<detlint::LexedFile> files;
    bool broken = false;
    for (const fs::path& p : fixture_paths) {
      std::string raw;
      if (!ReadFile(p, &raw)) {
        std::fprintf(stderr, "FAIL %s: cannot read %s\n", case_name.c_str(),
                     p.c_str());
        broken = true;
        break;
      }
      const std::string vpath = FixturePath(raw);
      if (vpath.empty()) {
        std::fprintf(stderr,
                     "FAIL %s: %s lacks the '// detlint-fixture: path=...' "
                     "first-line marker\n",
                     case_name.c_str(), p.c_str());
        broken = true;
        break;
      }
      // Diagnostics are keyed by the virtual path so expected.txt stays
      // relocatable.
      files.push_back(detlint::Lex(vpath, vpath, std::move(raw)));
    }
    if (broken) {
      ++failures;
      continue;
    }
    if (files.empty()) {
      std::fprintf(stderr, "FAIL %s: no fixture files\n", case_name.c_str());
      ++failures;
      continue;
    }

    std::string expected_raw;
    if (!ReadFile(dir / "expected.txt", &expected_raw)) {
      std::fprintf(stderr, "FAIL %s: missing expected.txt\n",
                   case_name.c_str());
      ++failures;
      continue;
    }
    std::vector<std::string> expected;
    std::istringstream lines(expected_raw);
    for (std::string line; std::getline(lines, line);) {
      while (!line.empty() && std::isspace(static_cast<unsigned char>(
                                  line.back()))) {
        line.pop_back();
      }
      if (line.empty() || line[0] == '#') continue;
      expected.push_back(line);
    }
    std::sort(expected.begin(), expected.end());

    detlint::AnalysisResult result = detlint::Analyze(files);
    const std::vector<std::string> actual = DiagnosticKeys(result);

    // Track per-rule coverage: a case named <rule>_pos / <rule>_neg (or
    // suppression_*) vouches for that rule family.
    rules_with_case.insert(case_name);

    if (actual != expected) {
      std::fprintf(stderr, "FAIL %s: diagnostics differ\n", case_name.c_str());
      for (const std::string& k : expected) {
        if (!std::binary_search(actual.begin(), actual.end(), k)) {
          std::fprintf(stderr, "  missing:    %s\n", k.c_str());
        }
      }
      for (const std::string& k : actual) {
        if (!std::binary_search(expected.begin(), expected.end(), k)) {
          std::fprintf(stderr, "  unexpected: %s\n", k.c_str());
        }
      }
      ++failures;
    } else {
      std::printf("ok   %s (%zu diagnostic(s))\n", case_name.c_str(),
                  actual.size());
    }
  }

  // Every rule must have at least one positive and one negative case, so
  // the corpus cannot silently lose coverage as rules evolve.
  for (const std::string& rule : detlint::KnownRules()) {
    const std::string canon = [&] {
      std::string c = rule;
      std::replace(c.begin(), c.end(), '-', '_');
      return c;
    }();
    for (const char* kind : {"_pos", "_neg"}) {
      if (rules_with_case.count(canon + kind) == 0) {
        std::fprintf(stderr, "FAIL corpus: rule '%s' lacks a %s%s case\n",
                     rule.c_str(), canon.c_str(), kind);
        ++failures;
      }
    }
  }

  std::printf("detlint --self-test: %zu case(s), %d failure(s)\n",
              cases.size(), failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  std::string format = "text";
  std::string sarif_path;
  std::string self_test_dir;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--sarif=", 0) == 0) {
      sarif_path = arg.substr(8);
    } else if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "text" && format != "sarif") {
        std::fprintf(stderr, "detlint: unknown format '%s'\n", format.c_str());
        return 2;
      }
    } else if (arg == "--self-test") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "detlint: --self-test needs a corpus dir\n");
        return 2;
      }
      self_test_dir = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "detlint: unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      roots.push_back(arg);
    }
  }

  if (!self_test_dir.empty()) return RunSelfTest(self_test_dir);
  if (roots.empty()) {
    std::fprintf(stderr,
                 "usage: detlint [--sarif=FILE] [--format=text|sarif] "
                 "<dir-or-file>...\n"
                 "       detlint --self-test <corpus-dir>\n");
    return 2;
  }
  return RunScan(roots, format, sarif_path);
}
