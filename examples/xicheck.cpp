// xicheck: a command-line validator for self-describing documents.
//
// Usage:
//   xicheck [options] file.xml [more.xml ...]    validate files
//   xicheck                            validate the built-in demo document
//
// Options:
//   --repair           print the edits that restore consistency and the
//                      repaired document (DOM mode only)
//   --stream           read each file in chunks and check it without
//                      building the tree: peak memory is bounded by the
//                      spill budget, not the document size
//   --spill-mb N       extent-log memory budget before spilling to disk,
//                      in MiB (default 64)
//   --max-depth N, --max-bytes N
//                      bound the input document (0 = unlimited)
//   --timeout-ms N     wall-clock budget per document
//   --trace-out FILE, --metrics-out FILE, --stats
//                      observability (examples/obs_cli.h)
//
// A "self-describing" document carries its DTD in the DOCTYPE internal
// subset and (optionally) its constraint set in an embedded
// "<!-- xic:constraints ... -->" block (see xml/dtdc_io.h). Each document
// goes through one check, ValidateSelfDescribing
// (engine/stream_validator.h); --stream only changes how the body is
// fed to it, so both modes print the same bytes. xicheck reports
// structural validity (Definition 2.4), constraint satisfaction
// (G |= Sigma) and, with --repair, the edits needed to restore
// consistency. The demo runs with --repair unless --stream is given.
// Exit code: 0 valid, 1 invalid, 2 usage/parse/limit error.

#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <optional>

#include "obs_cli.h"
#include "read_file.h"
#include "xic.h"

namespace {

using namespace xic;

const char* kDemo = R"(<?xml version="1.0"?>
<!DOCTYPE db [
<!ELEMENT db (person*, dept*)>
<!ELEMENT person EMPTY>
<!ATTLIST person oid ID #REQUIRED name CDATA #REQUIRED
          in_dept IDREFS #REQUIRED>
<!ELEMENT dept EMPTY>
<!ATTLIST dept oid ID #REQUIRED has_staff IDREFS #REQUIRED>
<!-- xic:constraints language=L_id
  id person.oid
  id dept.oid
  key person.name
  sfk person.in_dept -> dept.oid
  sfk dept.has_staff -> person.oid
  inverse person.in_dept <-> dept.has_staff
-->
]>
<db>
  <person oid="p1" name="Ada" in_dept="d1"/>
  <person oid="p2" name="Bob" in_dept="d1 ghost"/>
  <dept oid="d1" has_staff="p1 p2"/>
</db>
)";

struct CheckConfig {
  bool repair = false;
  bool stream = false;       // bounded-memory streaming pipeline
  size_t spill_mb = 64;      // extent-log budget before spilling (MiB)
  ResourceLimits limits;
  uint64_t timeout_ms = 0;  // 0 = no deadline
};

int CheckOne(const std::string& name, ByteSource& source,
             const CheckConfig& config) {
  StreamOptions options;
  options.validation.allow_missing_attributes = true;
  options.limits = config.limits;
  options.deadline = config.timeout_ms == 0
                         ? Deadline::Infinite()
                         : Deadline::AfterMillis(config.timeout_ms);
  options.spill_budget_bytes = config.spill_mb << 20;
  SelfDescribingResult r =
      ValidateSelfDescribing(source, options, config.stream);
  if (!r.outcome.parse.ok()) {
    std::cerr << name << ": " << r.outcome.parse << "\n";
    return 2;
  }
  if (!r.dtd.has_value()) {
    std::cerr << name << ": no DTD in the DOCTYPE; nothing to check\n";
    return 2;
  }
  const ValidationReport& structure = r.outcome.structure;
  if (!structure.status.ok()) {
    std::cerr << name << ": " << structure.status << "\n";
    return 2;
  }
  int exit_code = 0;
  std::cout << name << ": structure "
            << (structure.ok() ? "valid" : "INVALID") << "\n";
  if (!structure.ok()) {
    std::cout << structure.ToString();
    exit_code = 1;
  }
  if (!r.sigma.has_value()) {
    std::cout << name << ": no embedded constraints\n";
    return exit_code;
  }
  const ConstraintSet& sigma = *r.sigma;
  if (!r.well_formed.ok()) {
    std::cerr << name << ": constraint block ill-formed: " << r.well_formed
              << "\n";
    return 2;
  }
  const ConstraintReport& report = r.outcome.constraints;
  if (!report.status.ok()) {
    std::cerr << name << ": " << report.status << "\n";
    return 2;
  }
  std::cout << name << ": " << sigma.constraints.size() << " constraints, "
            << report.violations.size() << " violation(s)\n";
  if (report.ok()) return exit_code;
  std::cout << report.ToString(sigma);
  if (!config.repair) return 1;
  // --repair is refused with --stream, so the tree is here.
  const DtdStructure& dtd = *r.dtd;
  Result<RepairReport> repaired = RepairDocument(&*r.tree, dtd, sigma);
  if (!repaired.ok()) {
    std::cerr << name << ": repair failed: " << repaired.status() << "\n";
    return 2;
  }
  for (const std::string& action : repaired.value().actions) {
    std::cout << "  repair: " << action << "\n";
  }
  if (!repaired.value().fully_repaired()) {
    std::cout << name << ": not fully repairable:\n"
              << repaired.value().remaining.ToString(sigma);
    return 1;
  }
  std::cout << name << ": repaired document:\n"
            << WriteDocumentWithDtdC(*r.tree, dtd, sigma);
  return 0;
}

bool ParseNumber(const char* text, unsigned long* out) {
  char* end = nullptr;
  errno = 0;
  unsigned long value = std::strtoul(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0') return false;
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CheckConfig config;
  ObsCliOptions obs_options;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    unsigned long count = 0;
    bool obs_error = false;
    if (ObsParseFlag(argc, argv, &i, &obs_options, &obs_error)) {
      if (obs_error) return 2;
    } else if (arg == "--repair") {
      config.repair = true;
    } else if (arg == "--stream") {
      config.stream = true;
    } else if (arg == "--spill-mb" && i + 1 < argc) {
      if (!ParseNumber(argv[++i], &count)) {
        std::cerr << "--spill-mb: not a number: " << argv[i] << "\n";
        return 2;
      }
      config.spill_mb = count;
    } else if (arg == "--max-depth" && i + 1 < argc) {
      if (!ParseNumber(argv[++i], &count)) {
        std::cerr << "--max-depth: not a number: " << argv[i] << "\n";
        return 2;
      }
      config.limits.max_tree_depth = count;
    } else if (arg == "--max-bytes" && i + 1 < argc) {
      if (!ParseNumber(argv[++i], &count)) {
        std::cerr << "--max-bytes: not a number: " << argv[i] << "\n";
        return 2;
      }
      config.limits.max_document_bytes = count;
    } else if (arg == "--timeout-ms" && i + 1 < argc) {
      if (!ParseNumber(argv[++i], &count)) {
        std::cerr << "--timeout-ms: not a number: " << argv[i] << "\n";
        return 2;
      }
      config.timeout_ms = count;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: xicheck [--repair] [--stream] [--spill-mb N] "
                   "[--max-depth N] [--max-bytes N] [--timeout-ms N] "
                   "[--trace-out FILE] [--metrics-out FILE] [--stats] "
                   "[file.xml ...]\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << arg << ": unknown option\n";
      return 2;
    } else {
      files.push_back(std::move(arg));
    }
  }
  if (config.stream && config.repair) {
    std::cerr << "--repair needs the materialized tree; it cannot be "
                 "combined with --stream\n";
    return 2;
  }
  ObsCliSession obs_session(obs_options);
  if (files.empty()) {
    std::cout << "(no files given; checking the built-in demo, which has "
                 "one dangling reference)\n";
    CheckConfig demo = config;
    demo.repair = !config.stream;
    StringSource source(kDemo);
    int code = CheckOne("<demo>", source, demo) == 2 ? 2 : 0;
    if (!obs_session.Finish()) return 2;
    return code;
  }
  int worst = 0;
  for (const std::string& file : files) {
    std::optional<int> code;
    if (config.stream) {
      Result<FileSource> source = FileSource::Open(file);
      if (source.ok()) code = CheckOne(file, source.value(), config);
    } else if (std::string text; ReadFile(file, &text)) {
      StringSource source(text);  // held once, tokenized in place
      code = CheckOne(file, source, config);
    }
    if (!code.has_value()) std::cerr << file << ": cannot open\n";
    worst = std::max(worst, code.value_or(2));
  }
  if (!obs_session.Finish()) worst = std::max(worst, 2);
  return worst;
}
