#include "metrics/trace.hpp"

#include <cstdlib>

#include "common/assert.hpp"

namespace p2plab::metrics {

namespace {

std::string join(const std::vector<std::string>& parts) {
  std::string line;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) line += ',';
    line += parts[i];
  }
  return line;
}

std::string format_double(double v) {
  char buf[40];
  // %g keeps integers clean and floats compact.
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

void warn_unwritten(const std::string& path) {
  std::fprintf(stderr, "# P2PLAB_RESULTS_DIR: writing %s failed\n",
               path.c_str());
}

}  // namespace

ResultsFile::ResultsFile(const std::string& name) {
  const char* dir = std::getenv("P2PLAB_RESULTS_DIR");
  if (dir == nullptr || *dir == '\0') return;
  path_ = std::string(dir) + "/" + name;
  file_ = std::fopen(path_.c_str(), "w");
  if (file_ == nullptr) warn_unwritten(path_);
}

bool ResultsFile::close() {
  if (file_ == nullptr) return false;
  const bool write_failed = std::ferror(file_) != 0;
  const bool close_failed = std::fclose(file_) != 0;
  file_ = nullptr;
  if (write_failed || close_failed) {
    warn_unwritten(path_);
    return false;
  }
  return true;
}

bool write_results_file(const std::string& name, std::string_view text) {
  ResultsFile file(name);
  if (file.stream() == nullptr) return false;
  std::fwrite(text.data(), 1, text.size(), file.stream());
  return file.close();
}

CsvWriter::CsvWriter(const std::string& name,
                     const std::vector<std::string>& columns)
    : n_columns_(columns.size()), mirror_(name + ".csv") {
  P2PLAB_ASSERT(n_columns_ > 0);
  emit(join(columns));
}

CsvWriter::~CsvWriter() {
  // Flush stdout even when no data rows were written: a header-only (or
  // comment-only) table must still land for post-mortems. The mirror
  // flushes as it closes.
  std::fflush(stdout);
}

void CsvWriter::row(const std::vector<double>& values) {
  std::vector<std::string> text;
  text.reserve(values.size());
  for (double v : values) text.push_back(format_double(v));
  row(text);
}

void CsvWriter::row(const std::vector<std::string>& values) {
  P2PLAB_ASSERT_MSG(values.size() == n_columns_,
                    "CSV row width differs from header");
  emit(join(values));
  ++rows_;
}

void CsvWriter::comment(const std::string& text) { emit("# " + text); }

void CsvWriter::flush() {
  std::fflush(stdout);
  if (mirror_.stream() != nullptr) std::fflush(mirror_.stream());
}

void CsvWriter::emit(const std::string& line) {
  std::fputs(line.c_str(), stdout);
  std::fputc('\n', stdout);
  if (std::FILE* file = mirror_.stream()) {
    std::fputs(line.c_str(), file);
    std::fputc('\n', file);
  }
}

}  // namespace p2plab::metrics
