/**
 * @file
 * A minimal JSON value type with a serializer and a recursive-descent
 * parser, used by the obs exporter (obs.h) and its round-trip tests.
 *
 * Objects preserve insertion order so emitted stats files are stable
 * across runs and diffs stay readable. Numbers are stored as int64 or
 * double; everything the owl.obs.v2 schema needs fits in that.
 */

#ifndef OWL_OBS_JSON_H
#define OWL_OBS_JSON_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace owl::obs::json
{

class Value
{
  public:
    enum class Kind : uint8_t { Null, Bool, Int, Double, String, Array, Object };

    Value() : kind_(Kind::Null) {}
    Value(bool b) : kind_(Kind::Bool), b_(b) {}
    Value(int i) : kind_(Kind::Int), i_(i) {}
    Value(int64_t i) : kind_(Kind::Int), i_(i) {}
    Value(uint64_t i) : kind_(Kind::Int), i_(static_cast<int64_t>(i)) {}
    Value(double d) : kind_(Kind::Double), d_(d) {}
    Value(const char *s) : kind_(Kind::String), s_(s) {}
    Value(std::string s) : kind_(Kind::String), s_(std::move(s)) {}

    static Value array() { Value v; v.kind_ = Kind::Array; return v; }
    static Value object() { Value v; v.kind_ = Kind::Object; return v; }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isInt() const { return kind_ == Kind::Int; }
    bool isNumber() const
    {
        return kind_ == Kind::Int || kind_ == Kind::Double;
    }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool() const { return b_; }
    int64_t asInt() const
    {
        return kind_ == Kind::Double ? static_cast<int64_t>(d_) : i_;
    }
    double asDouble() const
    {
        return kind_ == Kind::Int ? static_cast<double>(i_) : d_;
    }
    const std::string &asString() const { return s_; }

    // -- object access ---------------------------------------------------
    /** Insert or overwrite a member; returns *this for chaining. */
    Value &set(const std::string &key, Value v);
    /** Member lookup; nullptr when absent or not an object. */
    const Value *find(const std::string &key) const;
    const std::vector<std::pair<std::string, Value>> &members() const
    {
        return obj_;
    }

    // -- array access ----------------------------------------------------
    void push(Value v) { arr_.push_back(std::move(v)); }
    const std::vector<Value> &items() const { return arr_; }
    size_t size() const
    {
        return kind_ == Kind::Object ? obj_.size() : arr_.size();
    }

    /**
     * Serialize. indent == 0 gives the compact single-line form;
     * indent > 0 pretty-prints with that many spaces per level.
     */
    std::string dump(int indent = 0) const;

    /**
     * Parse a complete JSON document. Returns false (and fills *err
     * with position + message, when non-null) on malformed input.
     */
    static bool parse(const std::string &text, Value &out,
                      std::string *err = nullptr);

  private:
    Kind kind_;
    bool b_ = false;
    int64_t i_ = 0;
    double d_ = 0;
    std::string s_;
    std::vector<Value> arr_;
    std::vector<std::pair<std::string, Value>> obj_;

    void dumpTo(std::string &out, int indent, int depth) const;
};

/** Escape a string for inclusion in a JSON document (adds quotes). */
std::string quote(const std::string &s);

} // namespace owl::obs::json

#endif // OWL_OBS_JSON_H
