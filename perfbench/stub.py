"""Local chat-completions endpoint that answers with the bundle's true mode class.

Run as its own process: `python3 perfbench/stub.py`. It prints
"port <n>" once it listens on 127.0.0.1 and serves until terminated.

POST /chat/completions   DELAY_S after the request arrives, replies with the most
                         frequent class among the prompt's "Item k:" lines
                         (ties go to the lowest class index). When the first
                         item carries the disputed tag and the prompt is not
                         a re-ask, the reply names two classes instead, so
                         the client must ask again.
GET  /stats              {"requests": <POSTs served so far>}
"""

from __future__ import annotations

import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from gen import DISPUTED_TAG, TOPIC_WORD, mode_class

_ITEM = re.compile(r"^Item (\d+): node \d+ " + TOPIC_WORD + r" class_(\d+)(.*)$", re.M)
# the client's re-ask suffix ends with this sentence
_REASK_END = "Answer with exactly one category name."
# well above the client's own cost per request, so most of a pass is fixed waiting
DELAY_S = 0.016


def reply_for(content: str) -> str:
    items = _ITEM.findall(content)
    if not items:
        return "no items found"
    mode = mode_class(int(c) for _, c, _ in items)
    first_rest = items[0][2]
    if DISPUTED_TAG in first_rest and not content.rstrip().endswith(_REASK_END):
        other = 1 if mode == 0 else 0
        return f"class_{mode} or class_{other}"
    return f"class_{mode}"


def main() -> int:
    count = [0]
    lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        def _send(self, payload):
            data = json.dumps(payload).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            with lock:
                n = count[0]
            self._send({"requests": n})

        def do_POST(self):
            # the reply leaves DELAY_S after the request headers arrived, so the
            # stub's own parsing is hidden inside the fixed delay
            due = time.monotonic() + DELAY_S
            body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
            with lock:
                count[0] += 1
            content = reply_for(body["messages"][-1]["content"])
            time.sleep(max(0.0, due - time.monotonic()))
            self._send({"choices": [{"message": {"role": "assistant", "content": content}}]})

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    # end-of-file on stdin means the benchmark has gone: stop serving
    threading.Thread(target=lambda: (sys.stdin.read(), server.shutdown()), daemon=True).start()
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
