#include "logs/records.h"

#include <stdexcept>
#include <string>

namespace acobe {
namespace {

[[noreturn]] void BadEnum(const char* what, std::string_view s) {
  std::string msg(what);
  msg.append(": unknown value '").append(s).append("'");
  throw std::invalid_argument(msg);
}

}  // namespace

const char* ToString(LogonActivity a) {
  switch (a) {
    case LogonActivity::kLogon: return "logon";
    case LogonActivity::kLogoff: return "logoff";
  }
  return "?";
}

const char* ToString(DeviceActivity a) {
  switch (a) {
    case DeviceActivity::kConnect: return "connect";
    case DeviceActivity::kDisconnect: return "disconnect";
  }
  return "?";
}

const char* ToString(FileActivity a) {
  switch (a) {
    case FileActivity::kOpen: return "open";
    case FileActivity::kWrite: return "write";
    case FileActivity::kCopy: return "copy";
    case FileActivity::kDelete: return "delete";
  }
  return "?";
}

const char* ToString(FileLocation l) {
  switch (l) {
    case FileLocation::kLocal: return "local";
    case FileLocation::kRemote: return "remote";
  }
  return "?";
}

const char* ToString(HttpActivity a) {
  switch (a) {
    case HttpActivity::kVisit: return "visit";
    case HttpActivity::kDownload: return "download";
    case HttpActivity::kUpload: return "upload";
  }
  return "?";
}

const char* ToString(HttpFileType t) {
  switch (t) {
    case HttpFileType::kNone: return "none";
    case HttpFileType::kDoc: return "doc";
    case HttpFileType::kExe: return "exe";
    case HttpFileType::kJpg: return "jpg";
    case HttpFileType::kPdf: return "pdf";
    case HttpFileType::kTxt: return "txt";
    case HttpFileType::kZip: return "zip";
  }
  return "?";
}

const char* ToString(EnterpriseAspect a) {
  switch (a) {
    case EnterpriseAspect::kFile: return "file";
    case EnterpriseAspect::kCommand: return "command";
    case EnterpriseAspect::kConfig: return "config";
    case EnterpriseAspect::kResource: return "resource";
  }
  return "?";
}

LogonActivity LogonActivityFromString(std::string_view s) {
  if (s == "logon") return LogonActivity::kLogon;
  if (s == "logoff") return LogonActivity::kLogoff;
  BadEnum("LogonActivity", s);
}

DeviceActivity DeviceActivityFromString(std::string_view s) {
  if (s == "connect") return DeviceActivity::kConnect;
  if (s == "disconnect") return DeviceActivity::kDisconnect;
  BadEnum("DeviceActivity", s);
}

FileActivity FileActivityFromString(std::string_view s) {
  if (s == "open") return FileActivity::kOpen;
  if (s == "write") return FileActivity::kWrite;
  if (s == "copy") return FileActivity::kCopy;
  if (s == "delete") return FileActivity::kDelete;
  BadEnum("FileActivity", s);
}

FileLocation FileLocationFromString(std::string_view s) {
  if (s == "local") return FileLocation::kLocal;
  if (s == "remote") return FileLocation::kRemote;
  BadEnum("FileLocation", s);
}

HttpActivity HttpActivityFromString(std::string_view s) {
  if (s == "visit") return HttpActivity::kVisit;
  if (s == "download") return HttpActivity::kDownload;
  if (s == "upload") return HttpActivity::kUpload;
  BadEnum("HttpActivity", s);
}

HttpFileType HttpFileTypeFromString(std::string_view s) {
  if (s == "none") return HttpFileType::kNone;
  if (s == "doc") return HttpFileType::kDoc;
  if (s == "exe") return HttpFileType::kExe;
  if (s == "jpg") return HttpFileType::kJpg;
  if (s == "pdf") return HttpFileType::kPdf;
  if (s == "txt") return HttpFileType::kTxt;
  if (s == "zip") return HttpFileType::kZip;
  BadEnum("HttpFileType", s);
}

EnterpriseAspect EnterpriseAspectFromString(std::string_view s) {
  if (s == "file") return EnterpriseAspect::kFile;
  if (s == "command") return EnterpriseAspect::kCommand;
  if (s == "config") return EnterpriseAspect::kConfig;
  if (s == "resource") return EnterpriseAspect::kResource;
  BadEnum("EnterpriseAspect", s);
}

}  // namespace acobe
