#pragma once
// Minimal self-contained JSON value type with parser and serializer.
//
// Used for the session journals and their evaluation-database snapshots,
// which give tunekit the crash-recovery capability the paper values in
// GPTune: a killed search resumes from the evaluations persisted so far.

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace tunekit::common {
class Io;
}

namespace tunekit::json {

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

/// Thrown on malformed JSON input or type-mismatched access.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A JSON value: null, bool, number (double), string, array, or object.
class Value {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Value() : type_(Type::Null) {}
  Value(std::nullptr_t) : type_(Type::Null) {}
  Value(bool b) : type_(Type::Bool), bool_(b) {}
  Value(double d) : type_(Type::Number), num_(d) {}
  Value(int i) : type_(Type::Number), num_(i) {}
  Value(std::int64_t i) : type_(Type::Number), num_(static_cast<double>(i)) {}
  Value(std::size_t i) : type_(Type::Number), num_(static_cast<double>(i)) {}
  Value(const char* s) : type_(Type::String), str_(s) {}
  Value(std::string s) : type_(Type::String), str_(std::move(s)) {}
  Value(Array a) : type_(Type::Array), arr_(std::move(a)) {}
  Value(Object o) : type_(Type::Object), obj_(std::move(o)) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_bool() const { return type_ == Type::Bool; }
  bool is_number() const { return type_ == Type::Number; }
  bool is_string() const { return type_ == Type::String; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_object() const { return type_ == Type::Object; }

  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  /// Object member access; throws JsonError if absent or not an object.
  const Value& at(const std::string& key) const;
  /// True if this is an object containing `key`.
  bool contains(const std::string& key) const;
  /// Object member with fallback default.
  double number_or(const std::string& key, double fallback) const;

  /// Serialize. `indent` < 0 gives compact output; >= 0 pretty-prints.
  std::string dump(int indent = -1) const;

 private:
  void dump_impl(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Container nesting bound for parse(): a document nested kMaxParseDepth
/// deep (or deeper) is rejected; kMaxParseDepth - 1 is the deepest accepted.
/// Untrusted network input (a request body of 100k '[' bytes) must produce a
/// JsonError, not a stack overflow — the parser is recursive, so depth is
/// bounded explicitly.
inline constexpr std::size_t kMaxParseDepth = 192;

/// Parse a complete JSON document; throws JsonError on malformed input.
/// Hardened for untrusted input: container nesting beyond kMaxParseDepth,
/// numbers outside double range (e.g. "1e999"), and non-grammar numbers
/// ("01", "1.", "+5", "1e") are all rejected with a clean JsonError.
Value parse(const std::string& text);

/// Convenience: read/write a JSON file. `load` throws JsonError if the file
/// cannot be read or parsed; `save` throws std::runtime_error on I/O failure.
Value load(const std::string& path);
void save(const std::string& path, const Value& value, int indent = 2);

/// As save(), but crash-safe: the document is written to a temporary file in
/// the same directory, flushed to disk, and atomically renamed over `path` —
/// a crash mid-save can never leave a truncated or corrupt file behind.
void save_atomic(const std::string& path, const Value& value, int indent = 2);

/// As save_atomic(), routed through an IO seam so fault-injection tests can
/// script disk failures; fsync results are checked (write/fsync/rename
/// failure throws) and the directory entry is synced after the rename.
void save_atomic(const std::string& path, const Value& value, int indent,
                 common::Io& io);

}  // namespace tunekit::json
