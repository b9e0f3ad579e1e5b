#pragma once

// Minimal CSV writing and line splitting used for log round-trips and
// bench output. Handles quoting of fields containing commas/quotes and
// CRLF line endings; reports structural damage (unterminated quotes)
// instead of guessing, so ingestion policies can decide. Records are
// one per physical line: the stream-level reader lives with the log
// ingest loop (src/logs/log_io.cpp).

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace acobe {

/// Writes rows to an output stream, quoting when needed.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  void WriteRow(const std::vector<std::string>& fields);

 private:
  std::ostream& out_;
};

/// Structural verdict for one CSV line.
enum class CsvRowStatus {
  kOk,
  kUnterminatedQuote,  // quote still open at end of line (truncated row)
};

/// Splits a single CSV line into fields, reporting structural damage.
/// A single trailing '\r' (CRLF ending) is ignored; other carriage
/// returns are field content. `fields` is always populated best-effort
/// even on a non-kOk status.
CsvRowStatus SplitCsvLineChecked(std::string_view line,
                                 std::vector<std::string>& fields);

/// Splits a single CSV line (no embedded newlines) into fields,
/// ignoring structural damage (legacy convenience wrapper).
std::vector<std::string> SplitCsvLine(std::string_view line);

/// Escapes a single field for CSV output.
std::string CsvEscape(const std::string& field);

}  // namespace acobe
