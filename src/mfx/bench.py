"""The benchmark corpus: the nine benchmark queries and their transducers.

The benchmark harness (``benchmark/run.py``) and the tests run these
queries over generated xmark-lite documents.
"""

from __future__ import annotations

from typing import Dict

from .compile import compile_text
from .mft import Mft
from .optimize import optimize

#: The benchmark programs, as printed (predicate forms, no where-clauses).
CORPUS_QUERIES: Dict[str, str] = {
    "q01": """<query01>{
for $person in $input/site/people/person
               [./person_id/text()="person0"]
return $person/name/text()}</query01>""",

    "q02": """<query02>{
for $open_auction in /site/open_auctions/open_auction return
 <increase>{ for $increase in $open_auction/bidder/increase return
   <bid>{$increase/text()}</bid> }</increase>
}</query02>""",

    "q04": """<query04>{
for $b in $input/site/open_auctions/open_auction
          [./bidder[./personref/personref_person/text()="personXX"]
            /following-sibling::bidder/personref/personref_person
            /text()="personYY"]
return <history>{$b/reserve/text()}</history>}</query04>""",

    "q13": """<query13>{
for $item in $input/site/regions/australia/item
return <item><name>{$item/name/text()}</name>
             <description>{$item/description}</description></item>
}</query13>""",

    "q16": """<query16>{
for $closed_auction in $input/site/closed_auctions/closed_auction
                [./annotation/description/parlist/listitem/parlist
                  /listitem/text/emph/keyword/text()] return
  <person><id>{$closed_auction/seller/seller_person}</id></person>
}</query16>""",

    "q17": """<query17>{
for $person in $input/site/people/person[empty(./homepage/text())]
return <person><name>{$person/name/text()}</name></person>
}</query17>""",

    "double": """<double><r1>{$input/*}</r1>{$input/*}</double>""",

    "fourstar": """<fourstar>{$input//*//*//*//*}</fourstar>""",

    "deepdup": """<deepdup>{ for $x in $input/* return
 <r> { for $y in $x/* return <r1><r2>{$y}</r2>{$y}</r1> } </r>
}</deepdup>""",
}


def corpus_transducer(name: str, no_opt: bool = False) -> Mft:
    m = compile_text(CORPUS_QUERIES[name])
    return m if no_opt else optimize(m)
