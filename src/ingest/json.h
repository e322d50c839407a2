/**
 * @file
 * Defensive, dependency-free JSON parsing for the ingestion boundary.
 *
 * This parser exists to face *untrusted* bytes: the OpenPulse-JSON
 * payloads external clients hand the RequestFrontEnd (frontend.h). It
 * is the project's one JSON reader (ingest::parseJob also reads back
 * the schedules pulse/qobj.cc writes), and it must survive millions
 * of adversarial documents, so every defect class is a distinct
 * structured ErrorCode (common/status.h) instead of an exception or a
 * crash:
 *
 *   - malformed-json       token/grammar violation
 *   - unexpected-end       truncated input (EOF inside a value)
 *   - invalid-utf8         non-UTF-8 bytes, overlong encodings,
 *                          surrogate halves, lone \uD800-style escapes
 *   - depth-limit          nesting beyond JsonLimits::maxDepth
 *   - size-limit           document/string/node budget exceeded
 *   - number-out-of-range  literal overflows a finite double
 *   - duplicate-key        an object repeats a member key
 *
 * Every parse-error Status message ends with the canonical location
 * suffix " at byte B (line L, column C)" — golden-tested in
 * tests/test_ingest.cc so the format cannot silently regress.
 *
 * Implementation constraints: iteration only (an explicit container
 * stack, so a 100k-deep nest exhausts the depth *limit*, never the
 * call stack), one pass, no locale-dependent parsing, and no
 * dependencies beyond the standard library.
 */
#ifndef QPULSE_INGEST_JSON_H
#define QPULSE_INGEST_JSON_H

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace qpulse {
namespace ingest {

/** Hard budgets applied while parsing untrusted input. */
struct JsonLimits
{
    /** Max document size in bytes. */
    std::size_t maxBytes = 8u << 20;
    /** Max container nesting depth. */
    std::size_t maxDepth = 64;
    /** Max decoded bytes of one string value or key. */
    std::size_t maxStringBytes = 64u << 10;
    /** Max total values (scalars + containers) in one document. */
    std::size_t maxValues = 1u << 20;
};

/**
 * Parsed JSON document node. Object members keep insertion order (the
 * parser has already rejected duplicates), so lowering code can
 * report the *first* offending field deterministically.
 */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    using Member = std::pair<std::string, JsonValue>;

    JsonValue() = default;

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Stable lower-case kind name ("object", "number", ...). */
    const char *kindName() const;

    bool boolean() const { return bool_; }
    double number() const { return number_; }
    const std::string &string() const { return string_; }
    const std::vector<JsonValue> &items() const { return items_; }
    const std::vector<Member> &members() const { return members_; }

    /** Member lookup by key; nullptr when absent. */
    const JsonValue *find(std::string_view key) const;

    /** Byte offset of this value's first character in the document
     *  (for schema-level diagnostics that outlive the parse). */
    std::size_t offset() const { return offset_; }

    static JsonValue makeNull(std::size_t offset);
    static JsonValue makeBool(bool value, std::size_t offset);
    static JsonValue makeNumber(double value, std::size_t offset);
    static JsonValue makeString(std::string value, std::size_t offset);
    static JsonValue makeArray(std::size_t offset);
    static JsonValue makeObject(std::size_t offset);

    /** Mutable container access (parser/back-end construction only). */
    std::vector<JsonValue> &mutableItems() { return items_; }
    std::vector<Member> &mutableMembers() { return members_; }

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> items_;
    std::vector<Member> members_;
    std::size_t offset_ = 0;
};

/** 1-based line/column of a byte offset in `text` (tab = 1 column). */
struct TextLocation
{
    std::size_t line = 1;
    std::size_t column = 1;
};
TextLocation locateOffset(std::string_view text, std::size_t offset);

/**
 * The canonical location suffix every ingest parse error carries:
 * " at byte B (line L, column C)". Exposed so schema-level rejects
 * (openpulse.cc) format identically to token-level ones.
 */
std::string locationSuffix(std::string_view text, std::size_t offset);

/**
 * Parse one complete JSON document. On success `out` holds the root
 * value and Ok is returned; on any defect `out` is left untouched and
 * the Status carries the distinct ErrorCode plus a message ending in
 * the canonical location suffix. Never throws, never crashes, never
 * recurses.
 */
Status parseJson(std::string_view text, const JsonLimits &limits,
                 JsonValue &out);

/**
 * Validate that `text` is well-formed UTF-8 (RFC 3629: no overlong
 * forms, no surrogates, no code points above U+10FFFF). Returns the
 * byte offset of the first offending byte, or npos when clean.
 */
std::size_t findInvalidUtf8(std::string_view text);

} // namespace ingest
} // namespace qpulse

#endif // QPULSE_INGEST_JSON_H
