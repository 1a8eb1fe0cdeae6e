// dmlint — determinism & invariant linter CLI.
//
// Scans src/, tools/ and bench/ (or --root <dir>) with the dm::lint rules engine,
// subtracts the committed baseline, and exits nonzero on any new finding.
//
//   dmlint [--root DIR] [--baseline FILE] [--write-baseline FILE]
//          [--format human|json] [--rules r1,r2,...] [--verbose]
//
// --rules narrows the run to the named rule families; the two meta rules
// (directive, suppression-reason) stay on regardless, because a malformed
// annotation invalidates whatever rule it belongs to.
//
// Exit codes: 0 clean, 1 new findings, 2 usage/IO error, 3 when any new
// finding is a directive/suppression parse error (the scan itself is
// untrustworthy until annotations parse).
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.h"

namespace {

struct Options {
  std::string root = ".";
  std::string baseline_path;
  std::string write_baseline_path;
  std::string format = "human";
  std::vector<std::string> rules;  ///< empty = all rules
  bool verbose = false;
};

void usage(std::ostream& out) {
  out << "usage: dmlint [--root DIR] [--baseline FILE]\n"
         "              [--write-baseline FILE] [--format human|json]\n"
         "              [--rules r1,r2,...] [--verbose]\n"
         "\n"
         "Scans DIR/src and DIR/tools for determinism-invariant violations.\n"
         "--rules keeps only the named rule families (meta rules stay on).\n"
         "Exits 0 when clean, 1 on new findings, 2 on usage or IO errors,\n"
         "3 when annotations themselves fail to parse.\n";
}

/// Splits a comma-separated --rules value and validates every name against
/// the engine's rule list. Returns false (after printing the offender and
/// the valid names) on an unknown rule.
[[nodiscard]] bool parse_rules(const std::string& value,
                               std::vector<std::string>* out) {
  std::istringstream in(value);
  std::string name;
  while (std::getline(in, name, ',')) {
    if (name.empty()) continue;
    const std::vector<std::string>& known = dm::lint::rule_names();
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::cerr << "dmlint: --rules names unknown rule '" << name
                << "'; valid rules:";
      for (const std::string& r : known) std::cerr << ' ' << r;
      std::cerr << '\n';
      return false;
    }
    out->push_back(name);
  }
  if (out->empty()) {
    std::cerr << "dmlint: --rules needs at least one rule name\n";
    return false;
  }
  return true;
}

/// True when `rule` survives the --rules filter: meta rules always do,
/// everything else only when named (or when no filter is active).
[[nodiscard]] bool rule_selected(const Options& opt, const std::string& rule) {
  if (opt.rules.empty()) return true;
  if (rule == dm::lint::kRuleDirective ||
      rule == dm::lint::kRuleSuppressionReason) {
    return true;
  }
  return std::find(opt.rules.begin(), opt.rules.end(), rule) !=
         opt.rules.end();
}

/// Baseline file format, one entry per line:
///   <fingerprint> <rule> <path>
/// Blank lines and lines starting with '#' are ignored. Only the
/// fingerprint participates in matching; rule and path are for humans.
[[nodiscard]] std::set<std::string> load_baseline(const std::string& path,
                                                  bool* ok) {
  std::set<std::string> entries;
  *ok = true;
  if (path.empty()) return entries;
  std::ifstream in(path);
  if (!in) {
    *ok = false;
    return entries;
  }
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::string fp;
    row >> fp;
    if (fp.empty() || fp.front() == '#') continue;
    entries.insert(fp);
  }
  return entries;
}

[[nodiscard]] std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
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

struct Annotated {
  const dm::lint::Finding* finding;
  std::string fingerprint;
  bool baselined = false;
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int a = 1; a < argc; ++a) {
    const std::string_view arg = argv[a];
    const auto value = [&]() -> const char* {
      if (a + 1 >= argc) {
        std::cerr << "dmlint: " << arg << " needs a value\n";
        return nullptr;
      }
      return argv[++a];
    };
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else if (arg == "--root") {
      const char* v = value();
      if (v == nullptr) return 2;
      opt.root = v;
    } else if (arg == "--baseline") {
      const char* v = value();
      if (v == nullptr) return 2;
      opt.baseline_path = v;
    } else if (arg == "--write-baseline") {
      const char* v = value();
      if (v == nullptr) return 2;
      opt.write_baseline_path = v;
    } else if (arg == "--format") {
      const char* v = value();
      if (v == nullptr) return 2;
      opt.format = v;
      if (opt.format != "human" && opt.format != "json") {
        std::cerr << "dmlint: unknown format '" << opt.format << "'\n";
        return 2;
      }
    } else if (arg == "--rules") {
      const char* v = value();
      if (v == nullptr) return 2;
      if (!parse_rules(v, &opt.rules)) return 2;
    } else if (arg.rfind("--rules=", 0) == 0) {
      if (!parse_rules(std::string(arg.substr(8)), &opt.rules)) return 2;
    } else if (arg == "--verbose") {
      opt.verbose = true;
    } else {
      std::cerr << "dmlint: unknown argument '" << arg << "'\n";
      usage(std::cerr);
      return 2;
    }
  }

  const std::vector<dm::lint::SourceFile> files =
      dm::lint::load_tree(opt.root, {"src", "tools", "bench"});
  if (files.empty()) {
    std::cerr << "dmlint: no sources found under '" << opt.root
              << "' (expected src/, tools/ and bench/)\n";
    return 2;
  }

  bool baseline_ok = true;
  const std::set<std::string> baseline =
      load_baseline(opt.baseline_path, &baseline_ok);
  if (!baseline_ok) {
    std::cerr << "dmlint: cannot read baseline '" << opt.baseline_path
              << "'\n";
    return 2;
  }

  const dm::lint::LintReport report = dm::lint::run_lint(files);

  // Fingerprint with ordinals so identical (rule, path, message) triples
  // stay distinct. Ordinals are computed BEFORE the --rules filter so a
  // narrowed run agrees with the full run on every fingerprint.
  std::vector<Annotated> rows;
  rows.reserve(report.findings.size());
  std::map<std::string, int> ordinals;
  for (const dm::lint::Finding& f : report.findings) {
    const std::string key = f.rule + '\0' + f.file + '\0' + f.message;
    const int ordinal = ordinals[key]++;
    if (!rule_selected(opt, f.rule)) continue;
    Annotated row;
    row.finding = &f;
    row.fingerprint = dm::lint::fingerprint(f, ordinal);
    row.baselined = baseline.count(row.fingerprint) > 0;
    rows.push_back(std::move(row));
  }

  if (!opt.write_baseline_path.empty()) {
    std::ofstream out(opt.write_baseline_path);
    if (!out) {
      std::cerr << "dmlint: cannot write baseline '"
                << opt.write_baseline_path << "'\n";
      return 2;
    }
    out << "# dmlint baseline — grandfathered findings. Target: empty.\n"
           "# <fingerprint> <rule> <path>\n";
    for (const Annotated& row : rows) {
      out << row.fingerprint << ' ' << row.finding->rule << ' '
          << row.finding->file << '\n';
    }
  }

  std::size_t fresh = 0;
  bool parse_error = false;
  for (const Annotated& row : rows) {
    if (row.baselined) continue;
    ++fresh;
    if (row.finding->rule == dm::lint::kRuleDirective ||
        row.finding->rule == dm::lint::kRuleSuppressionReason) {
      parse_error = true;
    }
  }

  if (opt.format == "json") {
    std::cout << "{\"findings\":[";
    bool first = true;
    for (const Annotated& row : rows) {
      if (!first) std::cout << ',';
      first = false;
      const dm::lint::Finding& f = *row.finding;
      std::cout << "{\"file\":\"" << json_escape(f.file) << "\",\"line\":"
                << f.line << ",\"rule\":\"" << json_escape(f.rule)
                << "\",\"message\":\"" << json_escape(f.message)
                << "\",\"fingerprint\":\"" << row.fingerprint
                << "\",\"baselined\":" << (row.baselined ? "true" : "false")
                << '}';
    }
    std::cout << "],\"suppressed\":" << report.suppressed.size()
              << ",\"new\":" << fresh << "}\n";
  } else {
    for (const Annotated& row : rows) {
      const dm::lint::Finding& f = *row.finding;
      std::cout << f.file << ':' << f.line << ": [" << f.rule << "] "
                << f.message;
      if (row.baselined) std::cout << " (baselined)";
      std::cout << '\n';
    }
    if (opt.verbose) {
      for (const dm::lint::Finding& f : report.suppressed) {
        std::cout << f.file << ':' << f.line << ": [" << f.rule
                  << "] suppressed: " << f.message << '\n';
      }
    }
    std::cout << "dmlint: " << files.size() << " files, " << fresh
              << " new finding(s), " << (rows.size() - fresh)
              << " baselined, " << report.suppressed.size()
              << " suppressed\n";
  }

  if (fresh == 0) return 0;
  return parse_error ? 3 : 1;
}
