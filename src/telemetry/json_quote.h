// The one JSON string escaper, shared by every hand-rolled JSON emitter
// (journal records, survey --json, traces, the stats stream).
#ifndef MFC_SRC_TELEMETRY_JSON_QUOTE_H_
#define MFC_SRC_TELEMETRY_JSON_QUOTE_H_

#include <string>
#include <string_view>

namespace mfc {

// Appends |s| as a quoted JSON string: '"' and '\\' are escaped, \n \t \r
// get their short forms and every other byte below 0x20 becomes \u00XX.
void JsonAppendQuoted(std::string& out, std::string_view s);

}  // namespace mfc

#endif  // MFC_SRC_TELEMETRY_JSON_QUOTE_H_
