#include "sim/serial.hpp"

#include <bit>
#include <cstdio>

#include "common/logging.hpp"

namespace vegeta::sim::serial {

u64
checksum(const std::string &text)
{
    u64 hash = 0xcbf29ce484222325ull;
    for (const char c : text)
        hash = (hash ^ static_cast<unsigned char>(c)) *
               0x100000001b3ull;
    return hash;
}

bool
parseU64(const std::string &text, u64 *out)
{
    if (text.empty() || text.size() > 20)
        return false;
    u64 value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return false;
        const u64 next = value * 10 + static_cast<u64>(c - '0');
        if (next < value)
            return false;
        value = next;
    }
    *out = value;
    return true;
}

bool
parseHexU64(const std::string &text, u64 *out)
{
    if (text.empty() || text.size() > 16)
        return false;
    u64 value = 0;
    for (const char c : text) {
        u64 digit;
        if (c >= '0' && c <= '9')
            digit = static_cast<u64>(c - '0');
        else if (c >= 'a' && c <= 'f')
            digit = static_cast<u64>(c - 'a') + 10;
        else
            return false;
        value = (value << 4) | digit;
    }
    *out = value;
    return true;
}

bool
parseI64(const std::string &text, i64 *out)
{
    const bool negative = !text.empty() && text[0] == '-';
    u64 magnitude;
    if (!parseU64(negative ? text.substr(1) : text, &magnitude))
        return false;
    if (negative) {
        if (magnitude > 0x8000000000000000ull)
            return false;
        // Negate in unsigned space: -INT64_MIN would overflow i64.
        *out = static_cast<i64>(~magnitude + 1);
    } else {
        if (magnitude > 0x7fffffffffffffffull)
            return false;
        *out = static_cast<i64>(magnitude);
    }
    return true;
}

std::string
hex16(u64 value)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

std::string
doubleBits(double value)
{
    return hex16(std::bit_cast<u64>(value));
}

bool
parseDoubleBits(const std::string &text, double *out)
{
    u64 bits;
    if (!parseHexU64(text, &bits))
        return false;
    *out = std::bit_cast<double>(bits);
    return true;
}

std::string
escape(const std::string &text)
{
    std::string escaped;
    escaped.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '%':
            escaped += "%25";
            break;
          case '\t':
            escaped += "%09";
            break;
          case '\n':
            escaped += "%0a";
            break;
          case '\r':
            escaped += "%0d";
            break;
          default:
            escaped += c;
        }
    }
    return escaped;
}

bool
unescape(const std::string &text, std::string *out)
{
    std::string plain;
    plain.reserve(text.size());
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] != '%') {
            plain += text[i];
            continue;
        }
        if (i + 2 >= text.size())
            return false;
        u64 code;
        if (!parseHexU64(text.substr(i + 1, 2), &code))
            return false;
        plain += static_cast<char>(code);
        i += 2;
    }
    *out = std::move(plain);
    return true;
}

std::vector<std::string>
splitTabs(const std::string &line)
{
    std::vector<std::string> fields;
    std::size_t start = 0;
    for (;;) {
        const std::size_t tab = line.find('\t', start);
        if (tab == std::string::npos) {
            fields.push_back(line.substr(start));
            return fields;
        }
        fields.push_back(line.substr(start, tab - start));
        start = tab + 1;
    }
}

// --- FieldReader -----------------------------------------------------

std::string
FieldReader::raw()
{
    if (!ok_ || next_ >= fields_.size()) {
        fail();
        return "";
    }
    return fields_[next_++];
}

std::string
FieldReader::str()
{
    std::string plain;
    if (!unescape(raw(), &plain))
        fail();
    return ok_ ? plain : "";
}

u64
FieldReader::num()
{
    u64 value = 0;
    if (!parseU64(raw(), &value))
        fail();
    return value;
}

i64
FieldReader::signedNum()
{
    i64 value = 0;
    if (!parseI64(raw(), &value))
        fail();
    return value;
}

u64
FieldReader::hex()
{
    u64 value = 0;
    if (!parseHexU64(raw(), &value))
        fail();
    return value;
}

double
FieldReader::bits()
{
    double value = 0;
    if (!parseDoubleBits(raw(), &value))
        fail();
    return value;
}

u32
FieldReader::num32()
{
    const u64 value = num();
    if (value > 0xffffffffull)
        fail();
    return static_cast<u32>(value);
}

// --- FieldWriter -----------------------------------------------------

FieldWriter &
FieldWriter::raw(const std::string &text)
{
    if (!first_)
        body_ += '\t';
    first_ = false;
    body_ += text;
    return *this;
}

FieldWriter &
FieldWriter::str(const std::string &text)
{
    return raw(escape(text));
}

FieldWriter &
FieldWriter::num(u64 value)
{
    return raw(std::to_string(value));
}

FieldWriter &
FieldWriter::signedNum(i64 value)
{
    return raw(std::to_string(value));
}

FieldWriter &
FieldWriter::hex(u64 value)
{
    return raw(hex16(value));
}

FieldWriter &
FieldWriter::bits(double value)
{
    return raw(doubleBits(value));
}

std::string
FieldWriter::line() const
{
    return body_ + '\t' + hex16(checksum(body_));
}

// --- Result bodies ---------------------------------------------------

void
appendSimulationResult(FieldWriter &writer,
                       const SimulationResult &result)
{
    writer.str(result.workload)
        .str(result.engine)
        .num(result.layerN)
        .num(result.executedN)
        .num(result.outputForwarding ? 1 : 0)
        .str(result.kernel)
        .num(result.coreCycles)
        .num(result.instructions)
        .num(result.engineInstructions)
        .num(result.tileComputes)
        .bits(result.macUtilization)
        .num(result.cacheHits)
        .num(result.cacheMisses);
}

bool
readSimulationResult(FieldReader &reader, SimulationResult *result)
{
    result->workload = reader.str();
    result->engine = reader.str();
    result->layerN = reader.num32();
    result->executedN = reader.num32();
    const u64 of = reader.num();
    result->outputForwarding = of != 0;
    result->kernel = reader.str();
    result->coreCycles = reader.num();
    result->instructions = reader.num();
    result->engineInstructions = reader.num();
    result->tileComputes = reader.num();
    result->macUtilization = reader.bits();
    result->cacheHits = reader.num();
    result->cacheMisses = reader.num();
    return reader.ok() && of <= 1;
}

void
appendAnalyticalResult(FieldWriter &writer,
                       const AnalyticalResult &result)
{
    writer.str(result.model);
    writer.num(result.columns.size());
    for (const auto &column : result.columns)
        writer.str(column);
    writer.num(result.rows.size());
    for (const auto &row : result.rows) {
        writer.num(row.size());
        for (const auto &cell : row)
            writer.str(cell.label)
                .bits(cell.value)
                .signedNum(cell.precision);
    }
    writer.num(result.notes.size());
    for (const auto &note : result.notes)
        writer.str(note);
}

bool
readAnalyticalResult(FieldReader &reader, AnalyticalResult *result)
{
    result->model = reader.str();
    const u64 columns = reader.num();
    if (!reader.ok() || columns > reader.remaining())
        return false;
    result->columns.clear();
    result->columns.reserve(columns);
    for (u64 c = 0; c < columns; ++c)
        result->columns.push_back(reader.str());
    const u64 rows = reader.num();
    if (!reader.ok() || rows > reader.remaining())
        return false;
    result->rows.clear();
    result->rows.reserve(rows);
    for (u64 r = 0; r < rows; ++r) {
        const u64 cells = reader.num();
        // 3 fields per cell: an impossible count fails fast instead
        // of looping on a corrupt length.
        if (!reader.ok() || cells > reader.remaining() / 3)
            return false;
        auto &row = result->rows.emplace_back();
        row.reserve(cells);
        for (u64 c = 0; c < cells; ++c) {
            AnalyticalCell cell;
            cell.label = reader.str();
            cell.value = reader.bits();
            const i64 precision = reader.signedNum();
            if (precision < -0x80000000ll || precision > 0x7fffffffll)
                return false;
            cell.precision = static_cast<int>(precision);
            row.push_back(std::move(cell));
        }
    }
    const u64 notes = reader.num();
    if (!reader.ok() || notes > reader.remaining())
        return false;
    result->notes.clear();
    result->notes.reserve(notes);
    for (u64 n = 0; n < notes; ++n)
        result->notes.push_back(reader.str());
    return reader.ok();
}

namespace {

/** The jobKey prefix of @p kind. */
std::string_view
keyPrefix(JobKind kind)
{
    return kind == JobKind::Analysis ? kAnalysisKeyPrefix
                                     : kSimulationKeyPrefix;
}

} // namespace

const char *
kindTag(JobKind kind)
{
    return kind == JobKind::Analysis ? "A" : "S";
}

std::optional<JobKind>
parseKindTag(const std::string &tag)
{
    for (const JobKind kind :
         {JobKind::Simulation, JobKind::Analysis})
        if (tag == kindTag(kind))
            return kind;
    return std::nullopt;
}

void
appendJobResult(FieldWriter &writer, const JobResult &result,
                const std::string *job_key)
{
    writer.raw(kindTag(result.kind));
    if (job_key) {
        const std::string_view prefix = keyPrefix(result.kind);
        VEGETA_ASSERT(job_key->starts_with(prefix),
                      "key of another job kind: ", *job_key);
        writer.str(job_key->substr(prefix.size()));
    }
    if (result.kind == JobKind::Analysis)
        appendAnalyticalResult(writer, result.analysis);
    else
        appendSimulationResult(writer, result.simulation);
}

bool
readJobResult(FieldReader &reader, JobResult *result,
              std::string *job_key)
{
    const auto kind = parseKindTag(reader.raw());
    if (!kind)
        return false;
    result->kind = *kind;
    if (job_key) {
        const std::string key = reader.str();
        if (!reader.ok() || key.empty())
            return false;
        *job_key = std::string(keyPrefix(*kind)) + key;
    }
    if (*kind == JobKind::Analysis)
        return readAnalyticalResult(reader, &result->analysis);
    return readSimulationResult(reader, &result->simulation);
}

std::optional<std::vector<std::string>>
checkedFields(const std::string &line)
{
    auto fields = splitTabs(line);
    if (fields.size() < 2)
        return std::nullopt;
    u64 sum;
    if (!parseHexU64(fields.back(), &sum))
        return std::nullopt;
    const std::size_t body_len =
        line.size() - fields.back().size() - 1; // minus "\t<sum>"
    if (sum != checksum(line.substr(0, body_len)))
        return std::nullopt;
    fields.pop_back();
    return fields;
}

} // namespace vegeta::sim::serial
