#ifndef CATDB_OBS_JSON_H_
#define CATDB_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace catdb::obs {

/// Minimal streaming JSON writer for the observability layer (run reports,
/// Chrome traces). No external dependencies; emits compact one-line JSON.
/// Commas and key/value alternation are handled by the writer; nesting is
/// tracked so misuse trips a CATDB_CHECK instead of producing garbage.
class JsonWriter {
 public:
  JsonWriter();

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Object key; must be followed by exactly one value/container.
  JsonWriter& Key(const std::string& key);

  JsonWriter& Value(const std::string& s);
  JsonWriter& Value(const char* s);
  JsonWriter& Value(double d);
  JsonWriter& Value(uint64_t v);
  JsonWriter& Value(int64_t v);
  JsonWriter& Value(uint32_t v) { return Value(static_cast<uint64_t>(v)); }
  JsonWriter& Value(int v) { return Value(static_cast<int64_t>(v)); }
  JsonWriter& Value(bool b);
  JsonWriter& Null();

  /// Appends pre-rendered JSON verbatim as one value; the caller guarantees
  /// `json` is itself a complete JSON value.
  JsonWriter& RawValue(const std::string& json);

  /// Convenience: Key(k) followed by Value(v).
  template <typename T>
  JsonWriter& KV(const std::string& key, const T& value) {
    Key(key);
    return Value(value);
  }

  /// The document so far. Valid once every container has been closed.
  const std::string& str() const { return out_; }
  bool complete() const;

 private:
  enum class Frame : uint8_t { kObject, kArray };

  void Separate();  // emits ',' where needed

  std::string out_;
  std::vector<Frame> stack_;
  std::vector<bool> first_in_frame_;
  bool value_at_top_ = false;  // a complete top-level value was written
  bool after_key_ = false;
};

/// Escapes a string per JSON rules (quotes not included).
std::string JsonEscape(const std::string& s);

/// Writes `content` to `path` (truncating). Used for report/trace export.
Status WriteTextFile(const std::string& path, const std::string& content);

}  // namespace catdb::obs

#endif  // CATDB_OBS_JSON_H_
