/**
 * @file
 * A small streaming JSON writer with correct string escaping.
 *
 * Every JSON emitter in the repo (report tables, stats export, trace
 * events) routes through this class so escaping bugs are fixed in one
 * place. The writer tracks the container stack and inserts commas
 * itself; callers only describe structure:
 *
 *     JsonWriter w(os, JsonWriter::Style::Pretty);
 *     w.beginObject();
 *     w.key("ipc");
 *     w.value(1.25);
 *     w.endObject();
 *
 * Doubles round-trip (shortest representation that parses back to the
 * same value); NaN and infinities — which are not representable in
 * JSON — are emitted as null.
 */

#ifndef BOUQUET_COMMON_JSON_HH
#define BOUQUET_COMMON_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace bouquet
{

/**
 * The shortest of %.15g and %.17g that parses back to the same bits.
 * JsonWriter writes finite doubles with it, and the DSE gate and the
 * canonical IPCP combo strings use it, so each round-trips exactly.
 */
std::string formatRoundTripDouble(double d);

/** Streaming JSON writer; see the file comment. */
class JsonWriter
{
  public:
    enum class Style
    {
        Compact,  //!< no whitespace at all
        Pretty,   //!< 2-space indent, one member per line
    };

    explicit JsonWriter(std::ostream &os, Style style = Style::Compact)
        : os_(os), style_(style)
    {
    }

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Object member key; must be followed by exactly one value. */
    void key(std::string_view k);

    void value(std::string_view s);
    void value(const char *s) { value(std::string_view(s)); }
    void value(bool b);
    void value(double d);
    void value(std::uint64_t u);
    void value(std::int64_t i);
    void value(int i) { value(static_cast<std::int64_t>(i)); }
    void value(unsigned u) { value(static_cast<std::uint64_t>(u)); }
    void null();

    /**
     * Emit a pre-formatted token verbatim (after comma/indent
     * bookkeeping). The caller guarantees it is valid JSON — used by
     * the report writer to keep its historical %.6g number formatting.
     */
    void rawValue(std::string_view token);

    /** Escape a string for embedding between JSON double quotes. */
    static std::string escape(std::string_view s);

  private:
    struct Frame
    {
        bool array = false;
        bool keyPending = false;  //!< object: key emitted, value due
        std::size_t count = 0;
    };

    /** Comma/newline/indent bookkeeping before a key or array value. */
    void preElement();
    /** Bookkeeping before a value (handles the key-pending case). */
    void preValue();
    void indent();
    void writeEscaped(std::string_view s);

    std::ostream &os_;
    Style style_;
    std::vector<Frame> stack_;
};

} // namespace bouquet

#endif // BOUQUET_COMMON_JSON_HH
