#include "report.h"

#include <string>
#include <vector>

namespace detlint {
namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void AppendResult(std::string* out, bool* first, const std::string& rule_id,
                  const std::string& level, const std::string& message,
                  const std::string& file, int line) {
  if (!*first) *out += ",\n";
  *first = false;
  *out += "        {\n";
  *out += "          \"ruleId\": \"" + JsonEscape(rule_id) + "\",\n";
  *out += "          \"level\": \"" + level + "\",\n";
  *out += "          \"message\": { \"text\": \"" + JsonEscape(message) +
          "\" },\n";
  *out += "          \"locations\": [ { \"physicalLocation\": { ";
  *out += "\"artifactLocation\": { \"uri\": \"" + JsonEscape(file) +
          "\" }, ";
  *out += "\"region\": { \"startLine\": " + std::to_string(line < 1 ? 1 : line) +
          " } } } ]\n";
  *out += "        }";
}

}  // namespace

int PrintTextReport(const AnalysisResult& result, size_t file_count,
                    std::FILE* out) {
  int errors = 0;
  for (const Finding& f : result.findings) {
    std::fprintf(out, "%s:%d: error: [%s] %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.excerpt.c_str());
    ++errors;
  }

  int suppression_count = 0;
  for (const Suppression& s : result.suppressions) {
    ++suppression_count;
    if (KnownRules().count(s.rule) == 0) {
      std::fprintf(out, "%s:%d: error: suppression names unknown rule '%s'\n",
                   s.file.c_str(), s.line, s.rule.c_str());
      ++errors;
      continue;
    }
    if (s.justification.empty()) {
      std::fprintf(out,
                   "%s:%d: error: suppression of [%s] without a "
                   "justification\n",
                   s.file.c_str(), s.line, s.rule.c_str());
      ++errors;
      continue;
    }
    if (!s.used) {
      std::fprintf(out, "%s:%d: error: unused suppression of [%s] (stale?)\n",
                   s.file.c_str(), s.line, s.rule.c_str());
      ++errors;
      continue;
    }
    std::fprintf(out, "%s:%d: allowed [%s]: %s\n", s.file.c_str(), s.line,
                 s.rule.c_str(), s.justification.c_str());
  }

  std::fprintf(out,
               "detlint: %zu files, %d finding(s), %d suppression(s) listed "
               "above\n",
               file_count, errors, suppression_count);
  return errors;
}

std::string SarifReport(const AnalysisResult& result) {
  std::string out;
  out +=
      "{\n"
      "  \"$schema\": "
      "\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
      "Schemata/sarif-schema-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"detlint\",\n"
      "          \"version\": \"2.0.0\",\n"
      "          \"informationUri\": "
      "\"https://example.invalid/hermes/tools/detlint\",\n"
      "          \"rules\": [\n";
  bool first = true;
  std::vector<std::pair<std::string, std::string>> metas(
      RuleDescriptions().begin(), RuleDescriptions().end());
  metas.emplace_back("suppression",
                     "detlint:allow suppression bookkeeping "
                     "(unknown rule, missing justification, stale)");
  for (const auto& [name, desc] : metas) {
    if (!first) out += ",\n";
    first = false;
    out += "            { \"id\": \"" + JsonEscape(name) +
           "\", \"shortDescription\": { \"text\": \"" + JsonEscape(desc) +
           "\" } }";
  }
  out +=
      "\n          ]\n"
      "        }\n"
      "      },\n"
      "      \"results\": [\n";

  first = true;
  for (const Finding& f : result.findings) {
    AppendResult(&out, &first, f.rule, "error", "[" + f.rule + "] " + f.excerpt,
                 f.file, f.line);
  }
  for (const Suppression& s : result.suppressions) {
    if (KnownRules().count(s.rule) == 0) {
      AppendResult(&out, &first, "suppression", "error",
                   "suppression names unknown rule '" + s.rule + "'", s.file,
                   s.line);
    } else if (s.justification.empty()) {
      AppendResult(&out, &first, "suppression", "error",
                   "suppression of [" + s.rule + "] without a justification",
                   s.file, s.line);
    } else if (!s.used) {
      AppendResult(&out, &first, "suppression", "error",
                   "unused suppression of [" + s.rule + "] (stale?)", s.file,
                   s.line);
    } else {
      AppendResult(&out, &first, "suppression", "note",
                   "allowed [" + s.rule + "]: " + s.justification, s.file,
                   s.line);
    }
  }

  out +=
      "\n      ]\n"
      "    }\n"
      "  ]\n"
      "}\n";
  return out;
}

}  // namespace detlint
