// CSV trace sinks for figure harnesses, and the one writer of results
// files.
//
// Every bench binary prints its figure data as CSV on stdout and (when
// P2PLAB_RESULTS_DIR is set) mirrors it to a file, so the paper's plots can
// be regenerated with gnuplot/matplotlib without re-running the experiment.
//
// Every file any run leaves in $P2PLAB_RESULTS_DIR — CSV mirrors, BENCH and
// ACCURACY json, trace.jsonl, the Perfetto timeline — is written through
// ResultsFile, under one rule: an unset or empty variable means no file;
// the directory must already exist; a file that cannot be opened, written
// or closed gets one stderr warning and the run goes on.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace p2plab::metrics {

/// One file in $P2PLAB_RESULTS_DIR, open for writing from construction to
/// close() (or destruction).
class ResultsFile {
 public:
  /// Opens `$P2PLAB_RESULTS_DIR/<name>`. stream() stays null when the
  /// variable is unset or empty, or (after a warning) when the open fails.
  explicit ResultsFile(const std::string& name);
  ~ResultsFile() { close(); }

  ResultsFile(const ResultsFile&) = delete;
  ResultsFile& operator=(const ResultsFile&) = delete;

  std::FILE* stream() const { return file_; }

  /// Close the file; true iff it was open and every write and the close
  /// itself succeeded. A failure warns once. Later calls return false.
  bool close();

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
};

/// Write `text` as the whole of `$P2PLAB_RESULTS_DIR/<name>`; true iff
/// written (false, silently, when the variable is unset or empty).
bool write_results_file(const std::string& name, std::string_view text);

/// A CSV table writer. Column count is fixed by the header; row writes are
/// checked against it.
class CsvWriter {
 public:
  /// Writes to stdout, and additionally to `$P2PLAB_RESULTS_DIR/<name>.csv`
  /// (a ResultsFile).
  explicit CsvWriter(const std::string& name,
                     const std::vector<std::string>& columns);
  ~CsvWriter();

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  void row(const std::vector<double>& values);
  void row(const std::vector<std::string>& values);

  /// Free-form comment line (prefixed with '#').
  void comment(const std::string& text);

  /// Push buffered output to both sinks now. Rows are written (not
  /// accumulated) as they arrive; this forces them through stdio, so a
  /// long run's timeline is tail(1)-able and survives a crash.
  void flush();

  size_t rows_written() const { return rows_; }

 private:
  void emit(const std::string& line);

  size_t n_columns_;
  size_t rows_ = 0;
  ResultsFile mirror_;  // optional; stdout always written
};

}  // namespace p2plab::metrics
