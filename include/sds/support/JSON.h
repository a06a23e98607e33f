//===- JSON.h - Minimal JSON parser for property files ----------*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The paper's toolchain (Figure 3) takes the user's domain-specific
// knowledge about index arrays as a JSON file. This is a small dependency-
// free JSON reader sufficient for those property files: objects, arrays,
// strings, integers/doubles, booleans and null, with UTF-8 passed through
// verbatim. Errors are reported by position instead of thrown.
//
//===----------------------------------------------------------------------===//

#ifndef SDS_SUPPORT_JSON_H
#define SDS_SUPPORT_JSON_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

namespace sds {
namespace json {

class Value;
class Object;

using Array = std::vector<Value>;

/// A parsed JSON value. Small tagged union; objects keep keys sorted.
class Value {
public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  Value() : K(Kind::Null) {}
  explicit Value(bool B) : K(Kind::Bool), BoolVal(B) {}
  explicit Value(int64_t I) : K(Kind::Int), IntVal(I) {}
  explicit Value(double D) : K(Kind::Double), DoubleVal(D) {}
  explicit Value(std::string S)
      : K(Kind::String), StrVal(std::move(S)) {}
  explicit Value(Array A);
  explicit Value(Object O);
  Value(const Value &O);
  Value(Value &&O) noexcept = default;
  Value &operator=(Value O) noexcept;
  ~Value() = default;

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isInt() const { return K == Kind::Int; }
  bool isNumber() const { return K == Kind::Int || K == Kind::Double; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool() const;
  int64_t asInt() const;
  double asDouble() const;
  const std::string &asString() const;
  const Array &asArray() const;
  const Object &asObject() const;

  /// Object field lookup; returns nullptr when absent or not an object.
  const Value *get(std::string_view Key) const;

  /// Serialize back to compact JSON text (for diagnostics and tests).
  std::string str() const;

private:
  void appendTo(std::string &Out) const;

  Kind K;
  bool BoolVal = false;
  int64_t IntVal = 0;
  double DoubleVal = 0;
  std::string StrVal;
  std::shared_ptr<Array> ArrVal;  // shared to keep Value copyable & compact
  std::shared_ptr<Object> ObjVal;
};

/// A JSON object: members kept sorted by key (the order str() writes them
/// in) in one flat vector, so building or parsing an object allocates per
/// object rather than per member. A repeated key keeps its first value.
class Object {
public:
  using value_type = std::pair<std::string, Value>;
  using iterator = std::vector<value_type>::iterator;
  using const_iterator = std::vector<value_type>::const_iterator;

  /// Insert `Key` with the value built from `Args` unless present; the
  /// iterator points at the member either way.
  template <typename... ArgTs>
  std::pair<iterator, bool> emplace(std::string Key, ArgTs &&...Args) {
    iterator It = lowerBound(Key);
    if (It != Members.end() && It->first == Key)
      return {It, false};
    It = Members.emplace(It, std::piecewise_construct,
                         std::forward_as_tuple(std::move(Key)),
                         std::forward_as_tuple(std::forward<ArgTs>(Args)...));
    return {It, true};
  }

  iterator find(std::string_view Key) {
    iterator It = lowerBound(Key);
    return It != Members.end() && It->first == Key ? It : Members.end();
  }
  const_iterator find(std::string_view Key) const {
    return const_cast<Object *>(this)->find(Key);
  }
  size_t count(std::string_view Key) const { return find(Key) != end(); }
  /// The member `Key`, which must be present.
  const Value &at(std::string_view Key) const;

  iterator begin() { return Members.begin(); }
  iterator end() { return Members.end(); }
  const_iterator begin() const { return Members.begin(); }
  const_iterator end() const { return Members.end(); }
  size_t size() const { return Members.size(); }
  bool empty() const { return Members.empty(); }

private:
  iterator lowerBound(std::string_view Key) {
    // Members usually arrive in key order: check the end first.
    if (Members.empty() || Members.back().first < Key)
      return Members.end();
    return std::lower_bound(
        Members.begin(), Members.end(), Key,
        [](const value_type &M, std::string_view K) { return M.first < K; });
  }

  std::vector<value_type> Members;
};

/// Result of a parse: either a value or a message with 1-based line/col.
struct ParseResult {
  Value Val;
  bool Ok = false;
  std::string Error;
  unsigned Line = 0;
  unsigned Col = 0;
};

/// Parse a complete JSON document. Trailing garbage is an error.
ParseResult parse(std::string_view Text);

} // namespace json
} // namespace sds

#endif // SDS_SUPPORT_JSON_H
