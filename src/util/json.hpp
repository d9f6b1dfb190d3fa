// Deterministic streaming JSON emitter and a minimal parser (no external
// deps, no DOM library).
//
// Built for the campaign manifest, whose byte-identity across interrupted
// and resumed runs is a hard guarantee: keys are emitted in call order,
// indentation is fixed at two spaces, and doubles always use the
// round-trippable "%.17g" format so a value loaded back from a checkpoint
// or a shard manifest re-serializes to the same bytes.
//
// Non-finite doubles: JSON has no NaN/Infinity literal, so
// JsonWriter::value(double) emits `null` for any non-finite value instead
// of the invalid `nan`/`inf` tokens "%.17g" would produce; readers map a
// null back to the one non-finite value each field can hold.
// format_double itself keeps the C textual forms — it also feeds the CSV
// writers, where "nan"/"inf" are what a reader of the table expects.
//
// The parser (`parse_json`) exists so the campaign merge step can read
// shard manifests back.  It accepts exactly the documents JsonWriter
// produces (plus ordinary standards-conforming JSON): numbers keep their
// raw token so integer fields survive a round-trip bit-exactly, and object
// members preserve insertion order.
#pragma once

#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace emask::util {

class JsonWriter {
 public:
  /// The stream must outlive the writer.
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Key of the next value inside an object.
  void key(const std::string& name);

  void value(const std::string& v);
  void value(const char* v) { value(std::string(v)); }
  /// Non-finite doubles (NaN, ±Inf) are emitted as `null`.
  void value(double v);
  void value(std::uint64_t v);
  void value(int v);
  void value(bool v);
  /// Emits a JSON `null`.
  void null();

  /// Finishes the document with a trailing newline.  All containers must
  /// be closed.
  void finish();

  [[nodiscard]] static std::string escape(const std::string& s);
  /// The "%.17g" rendering used for every finite double in the document.
  [[nodiscard]] static std::string format_double(double v);

 private:
  void before_item();
  void indent();

  struct Level {
    bool is_array = false;
    bool has_items = false;
  };

  std::ostream& out_;
  std::vector<Level> stack_;
  bool pending_key_ = false;
};

/// Parse or type error from `parse_json` / `JsonValue` accessors.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One parsed JSON value.  Numbers keep their raw source token (`text`),
/// converted on demand, so u64 counters larger than 2^53 and "%.17g"
/// doubles both survive a parse → re-serialize round trip bit-exactly.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  std::string text;  // string value, or the raw number token
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> members;  // in order

  [[nodiscard]] bool is_null() const { return type == Type::kNull; }

  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(const std::string& key) const;
  /// Object member lookup; throws JsonError naming the missing key.
  [[nodiscard]] const JsonValue& at(const std::string& key) const;

  // Typed accessors; each throws JsonError on a type mismatch or (for
  // numbers) a token that does not fit the requested type.
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::uint64_t as_u64() const;
  [[nodiscard]] long long as_int() const;
  [[nodiscard]] double as_double() const;
};

/// Parses one JSON document (value plus surrounding whitespace); throws
/// JsonError with a byte offset on malformed input.
[[nodiscard]] JsonValue parse_json(const std::string& text);

}  // namespace emask::util
