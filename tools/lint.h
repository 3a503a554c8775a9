// Determinism lint: a lightweight static pass over the C++ sources that
// flags the constructs most likely to break the engine's event-for-event
// determinism guarantee (DESIGN §8: run-to-run identity — two runs at the
// same seed execute the same events and export the same bytes).
//
// This is a regex/heuristic scanner, not a compiler plugin — it needs no
// libclang and runs anywhere the repo builds. It catches the hazard classes
// that have actually bitten parallel discrete-event simulators:
//
//   * unordered-iteration  range-for over a std::unordered_map/set declared
//                          in the same file: bucket order depends on hash
//                          seed, insertion history and libstdc++ version, so
//                          any order-sensitive use escapes determinism.
//   * wall-clock           std::chrono::{system,steady,high_resolution}_clock
//                          ::now() — wall time observed inside sim logic
//                          diverges run to run.
//   * libc-rand            rand()/srand()/random()/drand48(): hidden global
//                          state, unseeded or process-wide.
//   * random-device        std::random_device: nondeterministic by design.
//   * unseeded-rng         default-constructed std::mt19937/_64 or
//                          std::default_random_engine — deterministic but
//                          unseeded, so it cannot participate in the repo's
//                          seed-forking scheme (core/rng.h).
//   * pointer-key          std::map/std::set keyed by a pointer type:
//                          ordered by address, which ASLR re-rolls per run.
//
// Findings an auditor has cleared live in an allowlist file (one entry per
// line, `file-substring[:line]:check`), so CI fails only on NEW hazards.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace softmow::tools {

enum class LintCheck {
  kUnorderedIteration,
  kWallClock,
  kLibcRand,
  kRandomDevice,
  kUnseededRng,
  kPointerKey,
};

[[nodiscard]] const char* to_string(LintCheck check);

struct LintFinding {
  std::string file;
  int line = 0;  ///< 1-based
  LintCheck check = LintCheck::kWallClock;
  std::string snippet;  ///< the offending source line, trimmed
  bool allowlisted = false;

  [[nodiscard]] std::string str() const;
};

/// Audited-safe suppressions. Entry syntax, one per line:
///   <file-substring>:<check-id>          suppress the check anywhere the
///                                        path contains the substring
///   <file-substring>:<line>:<check-id>   suppress only on that line
/// `#` starts a comment; blank lines are ignored. Check ids are the
/// to_string() names (e.g. "wall-clock").
class Allowlist {
 public:
  static Allowlist parse(std::string_view text);
  /// Reads and parses `path`; a missing file yields an empty allowlist.
  static Allowlist load(const std::string& path);

  [[nodiscard]] bool allows(const LintFinding& f) const;
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string file;  ///< path substring
    int line = -1;     ///< -1 = any line
    std::string check;
  };
  std::vector<Entry> entries_;
};

/// Lints one translation unit given its content (testable without touching
/// the filesystem). Comments and string/char literals are stripped before
/// matching so documentation never trips the scanner.
[[nodiscard]] std::vector<LintFinding> lint_source(const std::string& path,
                                                   std::string_view content);

/// Reads `path` and lints it. Unreadable files yield no findings.
[[nodiscard]] std::vector<LintFinding> lint_file(const std::string& path);

/// Marks findings covered by `allow` and returns how many are NOT covered
/// (the CI failure count).
std::size_t apply_allowlist(std::vector<LintFinding>& findings, const Allowlist& allow);

}  // namespace softmow::tools
