#include "scenario/diagnostics.h"

#include <algorithm>

namespace pw::scenario {
namespace {

// Columns of source shown either side of the caret.
constexpr std::size_t kExcerptRadius = 40;

const char* SeverityName(Diagnostic::Severity s) {
  switch (s) {
    case Diagnostic::Severity::kError: return "error";
    case Diagnostic::Severity::kWarning: return "warning";
    case Diagnostic::Severity::kNote: return "note";
  }
  return "error";
}

}  // namespace

std::string Diagnostic::Header() const {
  std::string out = file;
  if (loc.line > 0) {
    out += ":" + std::to_string(loc.line) + ":" + std::to_string(loc.col);
  }
  out += ": ";
  out += SeverityName(severity);
  out += ": ";
  out += message;
  return out;
}

DiagnosticEngine::DiagnosticEngine(std::string file, std::string source)
    : file_(std::move(file)), source_(std::move(source)) {}

void DiagnosticEngine::Error(SourceLoc loc, std::string message) {
  diags_.push_back({Diagnostic::Severity::kError, file_, loc,
                    std::move(message)});
  ++num_errors_;
}

void DiagnosticEngine::Warning(SourceLoc loc, std::string message) {
  diags_.push_back({Diagnostic::Severity::kWarning, file_, loc,
                    std::move(message)});
}

void DiagnosticEngine::Note(SourceLoc loc, std::string message) {
  diags_.push_back({Diagnostic::Severity::kNote, file_, loc,
                    std::move(message)});
}

std::string DiagnosticEngine::Render(const Diagnostic& d) const {
  std::string out = d.Header();
  out += "\n";
  if (d.loc.line <= 0) return out;
  // Excerpt the offending line (1-based) and point a caret at the column.
  int line = 1;
  std::size_t start = 0;
  while (line < d.loc.line) {
    const std::size_t nl = source_.find('\n', start);
    if (nl == std::string::npos) return out;  // location past the buffer
    start = nl + 1;
    ++line;
  }
  std::size_t end = source_.find('\n', start);
  if (end == std::string::npos) end = source_.size();
  const std::size_t length = end - start;
  const std::size_t caret_at = std::min<std::size_t>(
      d.loc.col > 1 ? static_cast<std::size_t>(d.loc.col) - 1 : 0, length);
  // A long line (a minified one-line file) is clipped around the caret,
  // with "..." where text was cut.
  const std::size_t from =
      caret_at > kExcerptRadius ? caret_at - kExcerptRadius : 0;
  const std::size_t to = std::min(length, caret_at + kExcerptRadius);
  const std::string text = source_.substr(start + from, to - from);
  const std::string lead = from > 0 ? "..." : "";
  out += "  " + lead + text + (to < length ? "..." : "") + "\n";
  std::string caret = "  " + std::string(lead.size(), ' ');
  for (std::size_t i = 0; i < caret_at - from; ++i) {
    // Keep tabs so the caret lines up under tab-indented sources.
    caret += text[i] == '\t' ? '\t' : ' ';
  }
  caret += "^";
  out += caret + "\n";
  return out;
}

std::string DiagnosticEngine::Render() const {
  std::string out;
  for (const Diagnostic& d : diags_) out += Render(d);
  return out;
}

std::size_t EditDistance(const std::string& a, const std::string& b) {
  const std::size_t n = a.size(), m = b.size();
  if (n == 0) return m;
  if (m == 0) return n;
  // Three rolling rows are enough for the transposition term.
  std::vector<std::size_t> prev2(m + 1), prev(m + 1), cur(m + 1);
  for (std::size_t j = 0; j <= m; ++j) prev[j] = j;
  for (std::size_t i = 1; i <= n; ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= m; ++j) {
      const std::size_t sub = a[i - 1] == b[j - 1] ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + sub});
      if (i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1]) {
        cur[j] = std::min(cur[j], prev2[j - 2] + 1);
      }
    }
    std::swap(prev2, prev);
    std::swap(prev, cur);
  }
  return prev[m];
}

std::string DidYouMean(const std::string& word,
                       const std::vector<std::string>& candidates) {
  // Budget scales with length: a 3-char key tolerates 1 edit, "policy"
  // tolerates 2, long keys 3. Ties break toward the first candidate so the
  // suggestion is deterministic.
  const std::size_t budget = std::min<std::size_t>(3, word.size() / 3 + 1);
  std::string best;
  std::size_t best_dist = budget + 1;
  for (const std::string& c : candidates) {
    const std::size_t d = EditDistance(word, c);
    if (d < best_dist) {
      best_dist = d;
      best = c;
    }
  }
  return best_dist <= budget ? best : std::string();
}

std::string DidYouMeanSuffix(const std::string& word,
                             const std::vector<std::string>& candidates) {
  const std::string best = DidYouMean(word, candidates);
  return best.empty() ? std::string() : "; did you mean '" + best + "'?";
}

}  // namespace pw::scenario
