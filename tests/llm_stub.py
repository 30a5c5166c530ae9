"""A tiny local chat-completions server for exercising the LLM client."""

import enum
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer


class Broken(enum.Enum):
    """A reply that breaks the exchange after the request is read."""

    CLOSED = "the connection closes before any reply"
    CUT_SHORT = "a 200 reply whose body stops half way through its Content-Length"
    NOT_UTF8 = "a 200 reply whose body is not UTF-8"


class ChatStub:
    """Serves scripted replies at /chat/completions and records requests.

    `script` is a list of entries; each is a reply string, an integer HTTP
    status to fail with, or a `Broken` reply. Requests beyond the script
    reuse the last entry.
    """

    def __init__(self, script):
        self.script = list(script)
        self.requests = []
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length))
                stub.requests.append(
                    {"path": self.path, "body": body, "auth": self.headers.get("Authorization")}
                )
                idx = min(len(stub.requests) - 1, len(stub.script) - 1)
                entry = stub.script[idx]
                if entry is Broken.CLOSED:
                    self.close_connection = True
                    return
                if isinstance(entry, int):
                    self.send_response(entry)
                    self.end_headers()
                    self.wfile.write(b"scripted failure")
                    return
                content = "Agents" if isinstance(entry, Broken) else entry
                payload = {"choices": [{"message": {"role": "assistant", "content": content}}]}
                data = json.dumps(payload).encode("utf-8")
                if entry is Broken.NOT_UTF8:
                    data = data.decode("utf-8").encode("utf-16")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data[:len(data) // 2] if entry is Broken.CUT_SHORT else data)

            def log_message(self, *args):
                pass

        self._server = HTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def base_url(self):
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._server.server_close()
        return False
