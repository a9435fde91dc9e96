#include "json.hh"

#include <cassert>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace bouquet
{

std::string
formatRoundTripDouble(double d)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.15g", d);
    if (std::strtod(buf, nullptr) != d)
        std::snprintf(buf, sizeof buf, "%.17g", d);
    return buf;
}

void
JsonWriter::preElement()
{
    if (stack_.empty())
        return;
    Frame &f = stack_.back();
    if (f.count > 0)
        os_ << ',';
    ++f.count;
    if (style_ == Style::Pretty) {
        os_ << '\n';
        indent();
    }
}

void
JsonWriter::preValue()
{
    if (stack_.empty())
        return;
    Frame &f = stack_.back();
    if (f.array) {
        preElement();
    } else {
        // Inside an object a value may only follow a key.
        assert(f.keyPending && "JsonWriter: object value without key");
        f.keyPending = false;
    }
}

void
JsonWriter::indent()
{
    for (std::size_t i = 0; i < stack_.size(); ++i)
        os_ << "  ";
}

void
JsonWriter::beginObject()
{
    preValue();
    os_ << '{';
    stack_.push_back(Frame{false, false, 0});
}

void
JsonWriter::endObject()
{
    assert(!stack_.empty() && !stack_.back().array);
    const bool had_members = stack_.back().count > 0;
    stack_.pop_back();
    if (style_ == Style::Pretty && had_members) {
        os_ << '\n';
        indent();
    }
    os_ << '}';
}

void
JsonWriter::beginArray()
{
    preValue();
    os_ << '[';
    stack_.push_back(Frame{true, false, 0});
}

void
JsonWriter::endArray()
{
    assert(!stack_.empty() && stack_.back().array);
    const bool had_members = stack_.back().count > 0;
    stack_.pop_back();
    if (style_ == Style::Pretty && had_members) {
        os_ << '\n';
        indent();
    }
    os_ << ']';
}

void
JsonWriter::key(std::string_view k)
{
    assert(!stack_.empty() && !stack_.back().array &&
           !stack_.back().keyPending);
    preElement();
    writeEscaped(k);
    os_ << (style_ == Style::Pretty ? ": " : ":");
    stack_.back().keyPending = true;
}

void
JsonWriter::value(std::string_view s)
{
    preValue();
    writeEscaped(s);
}

void
JsonWriter::value(bool b)
{
    preValue();
    os_ << (b ? "true" : "false");
}

void
JsonWriter::value(double d)
{
    preValue();
    if (!std::isfinite(d)) {
        os_ << "null";
        return;
    }
    os_ << formatRoundTripDouble(d);
}

void
JsonWriter::value(std::uint64_t u)
{
    preValue();
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRIu64, u);
    os_ << buf;
}

void
JsonWriter::value(std::int64_t i)
{
    preValue();
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRId64, i);
    os_ << buf;
}

void
JsonWriter::null()
{
    preValue();
    os_ << "null";
}

void
JsonWriter::rawValue(std::string_view token)
{
    preValue();
    os_ << token;
}

void
JsonWriter::writeEscaped(std::string_view s)
{
    os_ << '"' << escape(s) << '"';
}

std::string
JsonWriter::escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

} // namespace bouquet
