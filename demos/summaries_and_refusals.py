"""Entity summaries, prompt templates, and refusal handling
============================================================

Generates summaries through a scripted chat-completions server. One
entity triggers a refusal, which comes back flagged with empty text so
downstream corpus building can count it rather than crash on it.
"""

from taxotext import PromptTemplate, detect_refusal, generate_summary
from taxotext.http import RetryPolicy
from taxotext.mockserver import MockLlmServer
from taxotext.summarize import PROMPT_TEMPLATES, LlmClient

template = PROMPT_TEMPLATES["GPT_SIC"]
print(f"template {template.id}, placeholder {template.placeholder!r}")
print(template.fill("Gold Hills Mining, Ltd.")[:90], "...")

REPLIES = {
    "Gold Hills Mining, Ltd.": (
        "Gold Hills Mining, Ltd. is a mineral exploration company focused on "
        "gold and copper deposits. It operates several drill programs."
    ),
    "Mystery Holdings": "I don't have current detailed information about that organization.",
}


def reply(messages, model):
    prompt = messages[-1]["content"]
    for name, text in REPLIES.items():
        if name in prompt:
            return text
    return ""


with MockLlmServer(reply=reply, api_key="demo-key") as server, \
        LlmClient(server.base_url, api_key="demo-key", policy=RetryPolicy()) as client:
    for n, name in enumerate(REPLIES):
        summary = generate_summary(
            f"e{n}", name, template, client, model_id="demo-model"
        )
        status = "REFUSED" if summary.refusal else f"{len(summary.text)} chars"
        print(f"{name}: {status}")
        if not summary.refusal:
            print(f"  {summary.text[:70]}...")

# the detector looks only at how the reply opens
assert detect_refusal("I'm sorry, I cannot help with that.")
assert not detect_refusal("Gold Hills Mining is a mineral exploration company.")
print("refusal detector spot checks passed")
