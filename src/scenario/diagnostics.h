// Clang-style diagnostics for the declarative scenario layer.
//
// Every parse or validation problem is reported as a Diagnostic anchored to
// a file:line:col source location; DiagnosticEngine collects them and
// renders each with the offending source line and a caret, e.g.
//
//   scenarios/serving.json:7:5: error: unknown key 'quik'; did you mean
//   'quick'?
//       "quik": { "horizon_ms": 2 },
//       ^
//
// The engine is also where "did you mean" lives: DidYouMean() picks the
// closest candidate by Damerau-Levenshtein distance, bounded so wildly
// wrong keys do not produce absurd suggestions.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace pw::scenario {

// 1-based position in a source file; line 0 means "whole file" (e.g. an
// unreadable file or an empty document).
struct SourceLoc {
  int line = 0;
  int col = 0;
};

struct Diagnostic {
  enum class Severity { kError, kWarning, kNote };
  Severity severity = Severity::kError;
  std::string file;
  SourceLoc loc;
  std::string message;

  // "file:line:col: error: message" (no source excerpt).
  std::string Header() const;
};

// Collects diagnostics against one source buffer and renders them with
// source context. Keeps the buffer so rendering can excerpt lines.
class DiagnosticEngine {
 public:
  DiagnosticEngine() = default;
  DiagnosticEngine(std::string file, std::string source);

  void Error(SourceLoc loc, std::string message);
  void Warning(SourceLoc loc, std::string message);
  void Note(SourceLoc loc, std::string message);

  bool ok() const { return num_errors_ == 0; }
  std::size_t num_errors() const { return num_errors_; }
  const std::vector<Diagnostic>& diagnostics() const { return diags_; }
  const std::string& file() const { return file_; }

  // Every diagnostic, clang-style: header line, source line, caret line.
  std::string Render() const;
  // One diagnostic rendered with its source excerpt: the offending line,
  // clipped to 40 columns either side of the error column.
  std::string Render(const Diagnostic& d) const;

 private:
  std::string file_;
  std::string source_;
  std::vector<Diagnostic> diags_;
  std::size_t num_errors_ = 0;
};

// Damerau-Levenshtein edit distance (insert/delete/substitute/transpose).
std::size_t EditDistance(const std::string& a, const std::string& b);

// The closest candidate within a distance budget scaled to the word's
// length (short words tolerate 1 edit, longer ones up to 3), or "" when
// nothing is plausibly what the author meant.
std::string DidYouMean(const std::string& word,
                       const std::vector<std::string>& candidates);

// "; did you mean 'X'?" when a plausible candidate exists, else "".
std::string DidYouMeanSuffix(const std::string& word,
                             const std::vector<std::string>& candidates);

}  // namespace pw::scenario
