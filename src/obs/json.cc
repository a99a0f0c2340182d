#include "obs/json.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "common/check.h"

namespace catdb::obs {

JsonWriter::JsonWriter() { out_.reserve(4096); }

void JsonWriter::Separate() {
  if (after_key_) {
    after_key_ = false;
    return;  // value directly follows "key":
  }
  if (stack_.empty()) {
    CATDB_CHECK(!value_at_top_);  // only one top-level value
    return;
  }
  if (first_in_frame_.back()) {
    first_in_frame_.back() = false;
  } else {
    out_.push_back(',');
  }
}

JsonWriter& JsonWriter::BeginObject() {
  Separate();
  out_.push_back('{');
  stack_.push_back(Frame::kObject);
  first_in_frame_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  CATDB_CHECK(!stack_.empty() && stack_.back() == Frame::kObject);
  CATDB_CHECK(!after_key_);
  out_.push_back('}');
  stack_.pop_back();
  first_in_frame_.pop_back();
  if (stack_.empty()) value_at_top_ = true;
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Separate();
  out_.push_back('[');
  stack_.push_back(Frame::kArray);
  first_in_frame_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  CATDB_CHECK(!stack_.empty() && stack_.back() == Frame::kArray);
  out_.push_back(']');
  stack_.pop_back();
  first_in_frame_.pop_back();
  if (stack_.empty()) value_at_top_ = true;
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& key) {
  CATDB_CHECK(!stack_.empty() && stack_.back() == Frame::kObject);
  CATDB_CHECK(!after_key_);
  Separate();
  out_.push_back('"');
  out_ += JsonEscape(key);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(const std::string& s) {
  Separate();
  out_.push_back('"');
  out_ += JsonEscape(s);
  out_.push_back('"');
  if (stack_.empty()) value_at_top_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(const char* s) {
  return Value(std::string(s));
}

JsonWriter& JsonWriter::Value(double d) {
  Separate();
  if (!std::isfinite(d)) {
    // JSON has no Infinity/NaN; null is the conventional stand-in.
    out_ += "null";
  } else {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    out_ += buf;
  }
  if (stack_.empty()) value_at_top_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(uint64_t v) {
  Separate();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out_ += buf;
  if (stack_.empty()) value_at_top_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(int64_t v) {
  Separate();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out_ += buf;
  if (stack_.empty()) value_at_top_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(bool b) {
  Separate();
  out_ += b ? "true" : "false";
  if (stack_.empty()) value_at_top_ = true;
  return *this;
}

JsonWriter& JsonWriter::Null() {
  Separate();
  out_ += "null";
  if (stack_.empty()) value_at_top_ = true;
  return *this;
}

JsonWriter& JsonWriter::RawValue(const std::string& json) {
  Separate();
  out_ += json;
  if (stack_.empty()) value_at_top_ = true;
  return *this;
}

bool JsonWriter::complete() const {
  return stack_.empty() && value_at_top_;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  return out;
}

Status WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open file for writing: " + path);
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const int close_rc = std::fclose(f);
  if (written != content.size() || close_rc != 0) {
    return Status::InvalidArgument("short write to file: " + path);
  }
  return Status::OK();
}

}  // namespace catdb::obs
