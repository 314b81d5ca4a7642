"""Shapes the shipped targets lack, for function-scoped fault edits.

The targets have no decorators, async defs, one-line defs or docstring-only
bodies, and only two methods.  This module has each of them, plus comments
and single-quoted strings that the normal form rewrites, and a method whose
multi-line docstring keeps its indentation.  It does not import ``time``, so
operators that need it must add the import.  It is parsed, never run.
"""

import threading  # guards _totals below

_lock = threading.Lock()
_totals = {'count': 0}


def close():
    'A module-level function sharing its bare name with Session.close.'
    return None


def one_line(x): return x + 1


def docstring_only():
    """Nothing but a docstring."""


async def fetch(client, key):
    # retry once before giving up
    for attempt in range(2):
        try:
            return await client.get(key)
        except ConnectionError as error:
            print('fetch failed:', error)
    raise TimeoutError('fetch timed out')


def memoize(function):
    return function


class Session:
    """A session whose methods carry decorators."""

    def __init__(self, name):
        self.name = name
        self.open = True

    @memoize
    def total(self, items):
        """Sum the positive items.

            This docstring's indentation must survive a splice.
        """
        total = 0
        for item in items:
            if item > 0:
                total += item  # counted
        with _lock:
            _totals['count'] += 1
        return total

    @staticmethod
    def label(value): return 'session:' + str(value)

    @property
    def closed(self):
        return not self.open

    async def drain(self, queue):
        while not queue.empty():
            await queue.get()
        return True

    def close(self):
        if self.open:
            self.open = False
            release(self.name)
        return True


def release(name):
    handle = open('/dev/null', 'w')
    try:
        handle.write(name)
    finally:
        handle.close()
    return len(name)
