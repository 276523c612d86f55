#include "tseries/io.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

namespace kshape::tseries {

namespace {

// Splits a line on commas, spaces, and tabs, skipping empty fields.
std::vector<std::string> SplitFields(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  for (char c : line) {
    if (c == ',' || c == ' ' || c == '\t' || c == '\r') {
      if (!current.empty()) {
        fields.push_back(current);
        current.clear();
      }
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) fields.push_back(current);
  return fields;
}

common::Status ParseDouble(const std::string& field, double* out) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(field.c_str(), &end);
  if (end == field.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(value)) {
    return common::Status::InvalidArgument("bad numeric field: " + field);
  }
  *out = value;
  return common::Status::OK();
}

// Parses a class-label field: a finite number whose nearest integer fits in
// an int. Out-of-range labels are rejected rather than wrapped.
common::Status ParseLabel(const std::string& field, std::size_t line_number,
                          int* out) {
  double value = 0.0;
  common::Status st = ParseDouble(field, &value);
  const double rounded = std::round(value);
  if (st.ok() && (rounded < std::numeric_limits<int>::min() ||
                  rounded > std::numeric_limits<int>::max())) {
    st = common::Status::InvalidArgument("label " + field +
                                         " is outside the int range");
  }
  if (!st.ok()) {
    return common::Status::InvalidArgument(
        "line " + std::to_string(line_number) + ": " + st.message());
  }
  *out = static_cast<int>(rounded);
  return common::Status::OK();
}

// Parses a value field for the lenient loader: "?" and any non-finite
// rendering ("nan", "inf", ...) become NaN missing markers.
common::Status ParseValueOrMissing(const std::string& field, double* out) {
  if (field == "?") {
    *out = std::numeric_limits<double>::quiet_NaN();
    return common::Status::OK();
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(field.c_str(), &end);
  if (end == field.c_str() || *end != '\0') {
    return common::Status::InvalidArgument("bad numeric field: " + field);
  }
  *out = std::isfinite(value) && errno != ERANGE
             ? value
             : std::numeric_limits<double>::quiet_NaN();
  return common::Status::OK();
}

}  // namespace

common::StatusOr<Dataset> ParseUcrText(const std::string& text,
                                       const std::string& dataset_name) {
  Dataset dataset(dataset_name);
  std::istringstream stream(text);
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    const std::vector<std::string> fields = SplitFields(line);
    if (fields.empty()) continue;  // Skip blank lines.
    if (fields.size() < 2) {
      return common::Status::InvalidArgument(
          "line " + std::to_string(line_number) +
          ": need a label and at least one value");
    }
    int label = 0;
    common::Status st = ParseLabel(fields[0], line_number, &label);
    if (!st.ok()) return st;

    Series series;
    series.reserve(fields.size() - 1);
    for (std::size_t i = 1; i < fields.size(); ++i) {
      double value = 0.0;
      st = ParseDouble(fields[i], &value);
      if (!st.ok()) return st;
      series.push_back(value);
    }
    if (!dataset.empty() && series.size() != dataset.length()) {
      return common::Status::InvalidArgument(
          "line " + std::to_string(line_number) + ": length " +
          std::to_string(series.size()) + " != dataset length " +
          std::to_string(dataset.length()));
    }
    dataset.Add(std::move(series), label);
  }
  if (dataset.empty()) {
    return common::Status::InvalidArgument("no series in input");
  }
  return dataset;
}

common::StatusOr<Dataset> ParseUcrText(const std::string& text,
                                       const std::string& dataset_name,
                                       const ConditioningOptions& options) {
  std::vector<Series> series;
  std::vector<int> labels;
  std::istringstream stream(text);
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    const std::vector<std::string> fields = SplitFields(line);
    if (fields.empty()) continue;  // Skip blank lines.
    if (fields.size() < 2) {
      return common::Status::InvalidArgument(
          "line " + std::to_string(line_number) +
          ": need a label and at least one value");
    }
    int label = 0;
    common::Status st = ParseLabel(fields[0], line_number, &label);
    if (!st.ok()) return st;
    Series row;
    row.reserve(fields.size() - 1);
    for (std::size_t i = 1; i < fields.size(); ++i) {
      double value = 0.0;
      st = ParseValueOrMissing(fields[i], &value);
      if (!st.ok()) {
        return common::Status::InvalidArgument(
            "line " + std::to_string(line_number) + ": " + st.message());
      }
      row.push_back(value);
    }
    series.push_back(std::move(row));
    labels.push_back(label);
  }
  if (series.empty()) {
    return common::Status::InvalidArgument("no series in input");
  }
  return ConditionToDataset(series, labels, dataset_name, options);
}

common::StatusOr<Dataset> ReadUcrFile(const std::string& path,
                                      const std::string& dataset_name) {
  std::ifstream file(path);
  if (!file) {
    return common::Status::IoError("cannot open " + path + ": " +
                                   std::strerror(errno));
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ParseUcrText(buffer.str(), dataset_name);
}

common::StatusOr<Dataset> ReadUcrFile(const std::string& path,
                                      const std::string& dataset_name,
                                      const ConditioningOptions& options) {
  std::ifstream file(path);
  if (!file) {
    return common::Status::IoError("cannot open " + path + ": " +
                                   std::strerror(errno));
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ParseUcrText(buffer.str(), dataset_name, options);
}

common::Status WriteUcrFile(const Dataset& dataset, const std::string& path) {
  std::ofstream file(path);
  if (!file) {
    return common::Status::IoError("cannot open " + path + " for writing: " +
                                   std::strerror(errno));
  }
  file.precision(17);
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    file << dataset.label(i);
    for (double v : dataset.view(i)) file << ',' << v;
    file << '\n';
  }
  if (!file) {
    return common::Status::IoError("write failed for " + path);
  }
  return common::Status::OK();
}

}  // namespace kshape::tseries
